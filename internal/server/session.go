package server

import (
	"net"
	"sync"
	"time"

	"detectable/internal/durable"
	"detectable/internal/shardkv"
)

// session is the server half of the paper's announcement structure lifted
// to the connection layer. A session outlives any single TCP connection:
// the dropped connection plays the role of the crash, and the retained
// outcome window plays Ann_p — the persistent record from which a
// reconnecting client learns whether its interrupted request linearized.
type session struct {
	id   uint64
	pid  int  // leased process slot; -1 for the slotless kinds
	kind kind // fixed at HELLO; what it admits is the admit table's business (admit.go)

	// mu serializes everything below AND the execution of the session's
	// requests: a session is one process of the model, and a process runs
	// one operation at a time. Taking mu across the check-execute-record
	// sequence is what makes resumed requests exactly-once even when a
	// kicked half-dead connection races its replacement.
	mu         sync.Mutex
	conn       net.Conn  // currently attached connection, nil when detached
	gen        uint64    // bumped on every attach, so stale handlers detach as no-ops
	detachedAt time.Time // when conn last became nil; zero while attached
	// window is the persisted-outcome window, Window slots of reqID →
	// encoded reply, and its mark is the highest request ID ever executed.
	// A slot's recovered bit marks a verdict loaded from the durable DB
	// rather than recorded live — one whose replay proves it crossed a
	// process boundary.
	window *durable.Window
	// recoveredMax is the durable outcome high-water this session was
	// restored with after a whole-process restart (0 for sessions born in
	// this process). In-window IDs at or below it that the window does not
	// hold were read-only or error replies the crash discarded, so they
	// re-execute (fresh) rather than erroring as stale (a pipelining client
	// may re-issue such an ID on resume).
	recoveredMax uint64

	// Batch scratch, guarded by mu like everything execute touches: the
	// decoded key/entry slices and the store's batch outcome slice are
	// session-owned and reused across requests, so a warm session serves
	// MGET/MPUT without allocating. The decoded keys alias the connection's
	// frame buffer and never outlive the request.
	keys    []string
	entries []shardkv.KV
	batch   shardkv.BatchScratch
}

// fresh reports whether a request ID the window does not hold executes:
// it is above the high-water mark, or it is in the window's range (a
// distance: reqID+Window may wrap) at or below recoveredMax — a verdict the
// crash discarded but never a committed mutation (those are all in the
// durable window), so fresh execution is exactly-once. Any other ID is
// stale. Must be called with s.mu held.
func (s *session) fresh(reqID uint64) bool {
	maxID := s.window.Max()
	return reqID > maxID || maxID-reqID < Window && reqID <= s.recoveredMax
}
