package server

import (
	"net"
	"sync"
	"time"

	"detectable/internal/shardkv"
)

// session is the server half of the paper's announcement structure lifted
// to the connection layer. A session outlives any single TCP connection:
// the dropped connection plays the role of the crash, and the retained
// outcome cache plays Ann_p — the persistent record from which a
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
	conn       net.Conn          // currently attached connection, nil when detached
	gen        uint64            // bumped on every attach, so stale handlers detach as no-ops
	detachedAt time.Time         // when conn last became nil; zero while attached
	maxID      uint64            // highest request ID ever executed
	cache      map[uint64][]byte // reqID → encoded reply, the persisted-outcome window
	free       [][]byte          // evicted window entries, recycled by record
	// recovered marks the request IDs whose window entries were loaded
	// from the durable DB rather than recorded live — the entries whose
	// replay proves a verdict crossed a process boundary. record deletes
	// an ID the session re-records live; nil for sessions born in this
	// process.
	recovered map[uint64]struct{}
	// recoveredMax is the durable outcome high-water this session was
	// restored with after a whole-process restart (0 for sessions born in
	// this process). In-window IDs at or below it that have no cache entry
	// were read-only or error replies the crash discarded — the durable
	// window holds every committed mutation — so they re-execute fresh
	// rather than erroring as stale (a pipelining client may re-issue such
	// an ID on resume).
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

// lookup returns the cached reply for reqID and how the ID classifies:
// replay (cached), fresh (execute it), or stale (older than the window).
type idClass int

const (
	idFresh idClass = iota
	idReplay
	idStale
)

// classify must be called with s.mu held.
func (s *session) classify(reqID uint64) (reply []byte, class idClass) {
	if reply, ok := s.cache[reqID]; ok {
		return reply, idReplay
	}
	if reqID > s.maxID {
		return nil, idFresh
	}
	if s.maxID-reqID >= Window { // a distance: reqID+Window may wrap
		return nil, idStale
	}
	if reqID <= s.recoveredMax {
		// In-window, uncached, at or below the recovery high-water: a
		// verdict the crash discarded but never a committed mutation (those
		// are all in the durable window) — fresh execution is exactly-once.
		return nil, idFresh
	}
	return nil, idStale
}

// record copies reply into the outcome window under reqID and evicts
// entries that fell out of the window, keeping their buffers for reuse —
// a session in steady state stops allocating window entries. Must be
// called with s.mu held; reply may alias a caller-owned scratch buffer.
func (s *session) record(reqID uint64, reply []byte) {
	s.cache[reqID] = append(s.take(len(reply)), reply...)
	delete(s.recovered, reqID) // re-recorded live: no longer a recovered verdict
	if reqID > s.maxID {
		s.maxID = reqID // a resumed pre-crash read may record out of order
	}
	for id := range s.cache {
		if s.maxID-id >= Window {
			// Keep evicted buffers for reuse; the window bounds the live
			// entries, so Window spares also bound the free list.
			if len(s.free) < Window {
				s.free = append(s.free, s.cache[id][:0])
			}
			delete(s.cache, id)
		}
	}
}

// take returns a recycled entry buffer with capacity for n bytes, or a
// fresh one. Non-fitting spares stay in the list (replies of mixed sizes
// would otherwise drain it); the chosen entry is swap-removed. Must be
// called with s.mu held.
func (s *session) take(n int) []byte {
	for i := len(s.free) - 1; i >= 0; i-- {
		if cap(s.free[i]) >= n {
			buf := s.free[i]
			last := len(s.free) - 1
			s.free[i] = s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
			return buf[:0]
		}
	}
	return make([]byte, 0, n)
}
