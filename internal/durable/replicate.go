package durable

// Primary/backup replication over the durable layer (docs/REPLICATION.md).
//
// The primary taps every write-ahead-log record — put-at records as they
// are journaled, session records as they are anchored — into per-subscriber
// buffers. A commit epoch goes onto the stream as its session records and a
// barrier message carrying a monotone sequence number *before* the primary's
// own fsync starts, and as a commit mark with the same sequence once that
// fsync has returned: the two nodes' fsyncs of one epoch run side by side.
// A synchronous subscriber gates verdict release: the commit path
// (DB.anchor, which every durable step reaches through its epoch) waits for
// the backup to acknowledge the barrier before returning, so group commit
// and replication share one epoch boundary — an epoch's verdicts are
// released only after that epoch is durable on both nodes. A subscriber
// that stalls past the ack timeout is dropped and its waiters released
// (replication degrades; durability on the primary is never weakened).
//
// A new subscriber first receives a fuzzy snapshot — every shard mirror in
// sorted key order, then the sessions mirror — bracketed by SnapBegin /
// SnapEnd, then the live tap. Puts are last-wins and session records
// idempotent, so applying the snapshot over any backup prefix converges;
// SnapEnd is also where the backup reconciles what a snapshot cannot say —
// absence. A backup may be behind the primary (it missed a session's end)
// or, since it fsyncs an epoch while the primary does, a whole epoch ahead
// of a primary that crashed before its own fsync returned; either way
// SnapEnd makes the snapshot authoritative (Replica.reconcile). Snapshot
// bytes are exempt from the subscriber's backlog limit (bootstrap must work
// for states larger than the limit), and a syncAck subscription starts
// gating commits only once its SnapEnd is acked — until then the
// bootstrapping replica neither delays verdicts nor counts as a laggard.
//
// The apply side (Replica) keeps the backup's own disk crash-consistent:
// put-at records are journaled into the backup's write-ahead log eagerly
// (early effects are harmless — the primary's own commit protocol already
// tolerates effects without outcomes; a snapshot's puts alone wait for
// SnapEnd, behind its reconciliation), but session records are staged in
// memory until a barrier arrives and then ride an epoch of the backup's
// own — appended behind those puts, one write, one fsync. A
// crash-prefix image of the backup's data directory therefore satisfies
// the same outcome-implies-effect invariant as the primary's, which
// internal/simio checks byte-for-byte. The barrier is acknowledged as soon
// as it is anchored; the epoch's puts reach the read view (view.go) only
// when its commit mark arrives.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Replication stream message kinds. Each message travels as one
// u32-length-prefixed frame: kind byte, then the body.
const (
	// ReplSnapBegin opens a snapshot: u64 generation, u32 shards,
	// u32 procs, u32 window. The backup verifies geometry and fencing
	// before applying anything.
	ReplSnapBegin byte = 0x01
	// ReplShardRec is one put-at record exactly as it sits in the
	// write-ahead log: recPutAt, u32 shard index, then the recPut record.
	ReplShardRec byte = 0x02
	// ReplSessRec is one raw session record of the write-ahead log
	// (recHello, recOutcome, recEnd, or recNextSID).
	ReplSessRec byte = 0x03
	// ReplSnapEnd closes a snapshot: u64 barrier sequence. It is itself a
	// barrier, and the point where the backup drops whatever it holds that
	// the snapshot and the records tapped beside it did not assert.
	ReplSnapEnd byte = 0x04
	// ReplBarrier closes one commit epoch: u64 sequence. It is sent before
	// the primary's fsync of that epoch starts.
	ReplBarrier byte = 0x05
	// ReplAck flows backup→primary: u64 sequence, acknowledging that
	// every record up to that barrier is durable on the backup.
	ReplAck byte = 0x06
	// ReplCommit says the primary's own fsync of the epoch closed by the
	// barrier (or SnapEnd) of this sequence has returned: u64 sequence. The
	// backup may show that epoch to readers from here on.
	ReplCommit byte = 0x07
)

// DefaultReplSubLimit bounds a subscriber's pending live-tap backlog; a
// backup that falls further behind than this is dropped rather than
// stalling the primary's memory. Bytes staged by the initial fuzzy
// snapshot are exempt — the snapshot is as large as the state and must
// always fit, or replication could never bootstrap past the limit.
const DefaultReplSubLimit = 64 << 20

// DefaultReplAckTimeout bounds how long a commit waits for a synchronous
// subscriber's barrier ack before dropping it and degrading to
// unreplicated operation.
const DefaultReplAckTimeout = 10 * time.Second

// ErrStalePrimary is returned (wrapped) by Replica.Apply when the primary
// announces a generation below the replica's own: the replica has been
// promoted past that primary and must never accept its stream.
var ErrStalePrimary = errors.New("durable: primary generation is behind this replica (fenced)")

var errReplSubClosed = errors.New("durable: replication subscription closed")

// replState is the primary-side replication hub embedded in DB.
type replState struct {
	nsubs      atomic.Int32  // registered subscribers (fast-path gate for taps)
	nsync      atomic.Int32  // gating subscribers: sync subs whose snapshot barrier is acked
	seq        atomic.Uint64 // barrier sequence; bumped only under sessions.mu
	committed  atomic.Uint64 // last sequence fsynced here; stored only under sessions.mu
	ackTimeout atomic.Int64  // nanoseconds; 0 = DefaultReplAckTimeout

	mu   sync.Mutex
	subs map[*ReplSub]struct{}
}

// ReplSub is one replication subscription: a buffer of framed stream
// messages the serving goroutine drains with Next, and the ack high-water
// mark the backup raises with Ack.
type ReplSub struct {
	r       *replState
	syncAck bool
	limit   int

	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte // pending framed messages
	spare     []byte // the buffer Next handed out last time, recycled
	snapBytes int    // bytes of buf staged by the snapshot, exempt from limit
	snapSeq   uint64 // barrier sequence of this sub's SnapEnd (0 until staged)
	gating    bool   // syncAck sub whose snapshot barrier is acked; counted in nsync
	acked     uint64
	closed    bool
	err       error
	timer     *time.Timer // wakes timed-out awaitAck waiters (wakeByLocked)
	wakeAt    time.Time   // when timer next fires; zero when it is not armed
}

// Subscribe registers a replication subscriber and stages a fuzzy snapshot
// of the current state followed by the live record tap. limit bounds the
// pending live-tap backlog (≤ 0 means DefaultReplSubLimit); snapshot bytes
// are exempt, so a state larger than the limit can still bootstrap — the
// snapshot occupies memory only until the serving goroutine drains it.
// With syncAck, commits on this DB wait for the subscriber's barrier acks
// before releasing verdicts — the semi-synchronous mode the server uses —
// but only once the subscriber has acknowledged its snapshot barrier
// (SnapEnd): a replica still transferring or fsyncing its initial snapshot
// neither delays commits nor gets dropped as a laggard. Without syncAck
// the subscription is a passive tap (tests, tooling).
func (db *DB) Subscribe(limit int, syncAck bool) *ReplSub {
	if limit <= 0 {
		limit = DefaultReplSubLimit
	}
	sub := &ReplSub{r: &db.repl, syncAck: syncAck, limit: limit}
	sub.cond = sync.NewCond(&sub.mu)

	r := &db.repl
	r.mu.Lock()
	if r.subs == nil {
		r.subs = make(map[*ReplSub]struct{})
	}
	r.subs[sub] = struct{}{}
	r.nsubs.Add(1)
	// The snapshot header is staged inside the registration lock so no
	// concurrent tap can slot a record ahead of it.
	var hdr [21]byte
	hdr[0] = ReplSnapBegin
	binary.BigEndian.PutUint64(hdr[1:], db.gen.Load())
	binary.BigEndian.PutUint32(hdr[9:], uint32(len(db.shards)))
	binary.BigEndian.PutUint32(hdr[13:], uint32(db.procs))
	binary.BigEndian.PutUint32(hdr[17:], uint32(db.sessions.window))
	sub.stageSnap(hdr[:], nil)
	r.mu.Unlock()

	// Fuzzy snapshot: shard mirrors first, sessions after, matching the
	// outcome-implies-effect order. Concurrent commits tap records that
	// interleave with the snapshot; both sides are last-wins/idempotent,
	// so the interleaving converges to the primary's state.
	stageAs := func(kind byte) func(rec []byte) error {
		hdr := []byte{kind}
		return func(rec []byte) error {
			if !sub.stageSnap(hdr, rec) {
				return errReplSubClosed // closed mid-snapshot; stop staging
			}
			return nil
		}
	}
	stageShard := stageAs(ReplShardRec)
	for i, sf := range db.shards {
		sf.mu.Lock()
		err := sf.emit(i, stageShard)
		sf.mu.Unlock()
		if err != nil {
			return sub
		}
	}
	ss := &db.sessions
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.emit(stageAs(ReplSessRec)) != nil {
		return sub
	}
	// The snapshot close is a barrier in its own right; its sequence is
	// allocated under ss.mu like every other barrier, so barrier order on
	// the stream matches sequence order. Its sequence is also the sub's
	// gating threshold: acking it is what turns a syncAck subscription
	// into a commit gate (Ack).
	seq := r.seq.Add(1)
	sub.mu.Lock()
	sub.snapSeq = seq
	sub.mu.Unlock()
	sub.stageSnap(seqMsg(ReplSnapEnd, seq), nil)
	// A shard mirror holds puts that are journaled but not yet fsynced, and
	// so does the snapshot. Every one of them was appended to the log before
	// it was staged, so one barrier here (free on a clean log) makes all of
	// the snapshot durable on this node, and SnapEnd gets its commit mark
	// like any other epoch.
	if err := db.wal.Sync(); err != nil {
		sub.fail(err)
		return sub
	}
	r.committed.Store(seq)
	sub.stageSnap(seqMsg(ReplCommit, seq), nil)
	return sub
}

// seqMsg encodes a kind + u64 sequence message (SnapEnd, Barrier, Commit).
func seqMsg(kind byte, seq uint64) []byte {
	var msg [9]byte
	msg[0] = kind
	binary.BigEndian.PutUint64(msg[1:], seq)
	return msg[:]
}

// SetReplAckTimeout overrides how long commits wait for a synchronous
// subscriber's barrier ack before dropping it (0 restores the default).
func (db *DB) SetReplAckTimeout(d time.Duration) { db.repl.ackTimeout.Store(int64(d)) }

// ReplStatus reports the replication high-water marks: the latest barrier
// sequence anchored on this node (its own fsync returned — not merely
// allocated and streamed), the lowest sequence acknowledged by every
// synchronous subscriber (0 when there are none; a standby fsyncs an epoch
// beside the primary, so this may run one ahead of seq), and the subscriber
// count.
func (db *DB) ReplStatus() (seq, acked uint64, subs int) {
	r := &db.repl
	seq = r.committed.Load()
	r.mu.Lock()
	first := true
	for sub := range r.subs {
		subs++
		if !sub.syncAck {
			continue
		}
		a := sub.ackedSeq()
		if first || a < acked {
			acked = a
			first = false
		}
	}
	r.mu.Unlock()
	if first {
		acked = 0
	}
	return seq, acked, subs
}

// ---- primary-side tap ----

// tapShard stages one put-at record to every subscriber. Called with the
// shard's mu held, immediately after the log append succeeds.
func (r *replState) tapShard(rec []byte) {
	if r.nsubs.Load() != 0 {
		kind := [1]byte{ReplShardRec}
		r.tapMsg(kind[:], rec)
	}
}

// tapSess stages one session record to every subscriber. Called from
// DB.anchor with sessions.mu held, once the epoch's records are appended to
// the log and before its fsync. The error is always nil (eachStaged's
// callback shape).
func (r *replState) tapSess(rec []byte) error {
	if r.nsubs.Load() != 0 {
		kind := [1]byte{ReplSessRec}
		r.tapMsg(kind[:], rec)
	}
	return nil
}

// tapBarrier allocates the next barrier sequence and stages the barrier
// message. Called from DB.anchor with sessions.mu held, behind the epoch's
// session records and before its fsync — every barrier sequence is
// allocated under that lock, so the stream order of barriers matches
// sequence order.
func (r *replState) tapBarrier() uint64 {
	seq := r.seq.Add(1)
	if r.nsubs.Load() != 0 {
		r.tapMsg(seqMsg(ReplBarrier, seq), nil)
	}
	return seq
}

// tapCommit records that epoch seq is fsynced on this node and stages its
// commit mark. Called from DB.anchor with sessions.mu held, after the fsync
// returned without error; a failed fsync never gets here.
func (r *replState) tapCommit(seq uint64) {
	r.committed.Store(seq)
	if r.nsubs.Load() != 0 {
		r.tapMsg(seqMsg(ReplCommit, seq), nil)
	}
}

func (r *replState) tapMsg(hdr, rec []byte) {
	r.mu.Lock()
	var dead []*ReplSub
	for sub := range r.subs {
		if !sub.stageMsg(hdr, rec) {
			dead = append(dead, sub)
		}
	}
	var lost []gateState
	for _, sub := range dead {
		if g, wasGating := r.dropLocked(sub); wasGating {
			lost = append(lost, g)
		}
	}
	r.mu.Unlock()
	for _, g := range lost {
		g.logLost(r.seq.Load())
	}
}

// dropLocked forgets sub. When sub was gating commits, it also returns the
// state it stopped gating in, for the caller to log once r.mu is released.
func (r *replState) dropLocked(sub *ReplSub) (g gateState, wasGating bool) {
	if _, ok := r.subs[sub]; !ok {
		return g, false
	}
	delete(r.subs, sub)
	r.nsubs.Add(-1)
	if sub.syncAck {
		if g, wasGating = sub.disengage(); wasGating {
			r.nsync.Add(-1)
		}
	}
	return g, wasGating
}

func (r *replState) unregister(sub *ReplSub) {
	r.mu.Lock()
	g, wasGating := r.dropLocked(sub)
	r.mu.Unlock()
	if wasGating {
		g.logLost(r.seq.Load())
	}
}

// gateState is what a log line says about a gating subscriber: the barrier
// it had acknowledged, its live-tap backlog, and why it closed (nil while
// it is open).
type gateState struct {
	acked   uint64
	backlog int
	cause   error
}

// logLost reports that commits are no longer gated by this subscriber: an
// ack timeout, a backlog overflow, or its connection going away. Verdicts
// are released on the primary's fsync alone until a standby has
// bootstrapped again.
func (g gateState) logLost(seq uint64) {
	cause := "subscription closed"
	if g.cause != nil {
		cause = g.cause.Error()
	}
	slog.Warn("replication degraded: sync standby no longer gates commits",
		"cause", cause, "seq", seq, "acked", g.acked, "backlog_bytes", g.backlog)
}

// waitBarrier blocks until every gating subscriber — a synchronous one
// whose snapshot barrier has been acked — has acknowledged barrier seq,
// the ack timeout passes (the laggard is dropped), or the subscriber
// closes. A sync subscriber still transferring or applying its initial
// snapshot is not waited on: its first ack may legitimately take longer
// than the ack timeout, and dropping it for that would re-bootstrap large
// replicas forever. Called with no DB locks held — commit paths release
// sessions.mu first, so the backup's ack path can never deadlock against
// the primary's commit path.
func (r *replState) waitBarrier(seq uint64) {
	if r.nsync.Load() == 0 {
		return
	}
	// One gating subscriber is the deployment there is; only a second one
	// costs a slice.
	var first *ReplSub
	var more []*ReplSub
	r.mu.Lock()
	for sub := range r.subs {
		if !sub.syncAck || !sub.isGating() {
			continue
		}
		if first == nil {
			first = sub
		} else {
			more = append(more, sub)
		}
	}
	r.mu.Unlock()
	if first == nil {
		return
	}
	timeout := time.Duration(r.ackTimeout.Load())
	if timeout == 0 {
		timeout = DefaultReplAckTimeout
	}
	first.awaitAckOrDrop(seq, timeout)
	for _, sub := range more {
		sub.awaitAckOrDrop(seq, timeout)
	}
}

// awaitAckOrDrop waits for the ack of barrier seq and drops a backup that
// stalls past the timeout, so one dead replica cannot wedge the primary.
// Detectability on the primary is unaffected; replication has degraded.
func (s *ReplSub) awaitAckOrDrop(seq uint64, timeout time.Duration) {
	if !s.awaitAck(seq, timeout) {
		s.fail(fmt.Errorf("durable: replication ack for barrier %d timed out after %v", seq, timeout))
	}
}

// ---- subscriber ----

// stageMsg appends one framed message (hdr ++ rec) to the pending buffer.
// Returns false if the subscription is closed or just overflowed. The
// limit applies to the live-tap backlog only: bytes still buffered from
// the snapshot (snapBytes) are not the subscriber's fault for lagging and
// are excluded, or any tap during a larger-than-limit snapshot transfer
// would tear the subscription down.
func (s *ReplSub) stageMsg(hdr, rec []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	n := len(hdr) + len(rec)
	if backlog := len(s.buf) - s.snapBytes; backlog+4+n > s.limit {
		s.closeLocked(fmt.Errorf("durable: replication subscriber fell %d bytes behind (limit %d)", backlog, s.limit))
		return false
	}
	s.stageLocked(hdr, rec)
	return true
}

// stageSnap appends one framed snapshot message, exempt from the backlog
// limit — the snapshot is as large as the state, and closing the
// subscription over it would make bootstrap impossible for any state
// larger than the limit (the replica would resync into the same overflow
// forever). Returns false if the subscription is closed.
func (s *ReplSub) stageSnap(hdr, rec []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.snapBytes += 4 + len(hdr) + len(rec)
	s.stageLocked(hdr, rec)
	return true
}

// stageLocked frames hdr ++ rec into the pending buffer. Called with s.mu
// held.
func (s *ReplSub) stageLocked(hdr, rec []byte) {
	s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(len(hdr)+len(rec)))
	s.buf = append(s.buf, hdr...)
	s.buf = append(s.buf, rec...)
	s.cond.Broadcast()
}

// Next blocks until pending stream bytes are available and returns them
// (a whole number of framed messages, ready to write to the wire as-is).
// The returned slice is valid until the next call. Pending bytes staged
// before a close are still drained; after that Next returns io.EOF for a
// clean close or the failure that tore the subscription down.
func (s *ReplSub) Next() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.buf) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.buf) == 0 {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	out := s.buf
	s.buf = s.spare[:0]
	s.spare = out
	s.snapBytes = 0 // the whole buffer drained, snapshot bytes included
	return out, nil
}

// Ack raises the subscriber's acknowledged barrier sequence, releasing any
// commit waiting on it. The ack that first covers the subscription's
// snapshot barrier (SnapEnd) also engages commit gating: from then on —
// and only then — a syncAck subscription counts toward nsync, so a
// replica still bootstrapping never stalls (or gets dropped by) the
// primary's commits.
func (s *ReplSub) Ack(seq uint64) {
	s.mu.Lock()
	if seq > s.acked {
		s.acked = seq
		s.cond.Broadcast()
	}
	engaged := s.syncAck && !s.gating && !s.closed && s.snapSeq != 0 && s.acked >= s.snapSeq
	var g gateState
	if engaged {
		// closeLocked always precedes unregistration, so engaging here
		// (under s.mu, on a live sub) pairs exactly once with the
		// disengage in dropLocked.
		s.gating = true
		s.r.nsync.Add(1)
		g = s.gateStateLocked()
	}
	s.mu.Unlock()
	if engaged {
		slog.Info("replication: sync standby bootstrapped, commits now wait for its acks",
			"seq", s.r.seq.Load(), "acked", g.acked, "backlog_bytes", g.backlog)
	}
}

// gateStateLocked snapshots what the log lines report. Called with s.mu
// held.
func (s *ReplSub) gateStateLocked() gateState {
	return gateState{acked: s.acked, backlog: len(s.buf) - s.snapBytes, cause: s.err}
}

// SnapSeq returns the barrier sequence of the subscription's snapshot
// close (SnapEnd) — the ack that engages commit gating — or 0 if the
// snapshot was never fully staged.
func (s *ReplSub) SnapSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// isGating reports whether this subscription currently gates commits.
func (s *ReplSub) isGating() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gating
}

// disengage clears gating, returning whether it was engaged and the state
// it was in. Called from dropLocked (r.mu held; r.mu → s.mu is the tap
// path's lock order).
func (s *ReplSub) disengage() (gateState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := s.gating
	s.gating = false
	return s.gateStateLocked(), was
}

func (s *ReplSub) ackedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// awaitAck waits until acked ≥ seq or the timeout elapses. Returns whether
// the ack arrived (a closed subscription counts only if it acked first).
func (s *ReplSub) awaitAck(seq uint64, timeout time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.acked >= seq {
		return true
	}
	deadline := time.Now().Add(timeout)
	for s.acked < seq && !s.closed && time.Now().Before(deadline) {
		s.wakeByLocked(deadline)
		s.cond.Wait()
	}
	return s.acked >= seq
}

// wakeByLocked makes sure the subscription's one timer broadcasts no later
// than deadline, so a timed wait allocates nothing once the timer exists.
// Every waiter calls it before each cond.Wait, and wake clears wakeAt when
// it fires, so whoever is still waiting re-arms it for their own deadline
// and the earliest one always wins. Called with s.mu held.
func (s *ReplSub) wakeByLocked(deadline time.Time) {
	if !s.wakeAt.IsZero() && !deadline.Before(s.wakeAt) {
		return
	}
	s.wakeAt = deadline
	if d := time.Until(deadline); s.timer == nil {
		s.timer = time.AfterFunc(d, s.wake)
	} else {
		s.timer.Reset(d)
	}
}

func (s *ReplSub) wake() {
	s.mu.Lock()
	s.wakeAt = time.Time{}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Close cleanly tears the subscription down: pending bytes already staged
// remain drainable via Next, no new records are staged, and any commit
// waiting on this subscriber is released.
func (s *ReplSub) Close() {
	s.mu.Lock()
	s.closeLocked(nil)
	s.mu.Unlock()
	s.r.unregister(s)
}

func (s *ReplSub) fail(err error) {
	s.mu.Lock()
	s.closeLocked(err)
	s.mu.Unlock()
	s.r.unregister(s)
}

// closeLocked marks the subscription closed. Called with s.mu held; the
// caller (or the next tap sweep) unregisters it from the hub.
func (s *ReplSub) closeLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	if err == nil {
		err = errReplSubClosed
	}
	if s.err == nil && !errors.Is(err, errReplSubClosed) {
		s.err = err
	}
	s.cond.Broadcast()
}

// ---- acks ----

// AppendReplAck appends one encoded ack message for barrier seq to dst.
func AppendReplAck(dst []byte, seq uint64) []byte {
	dst = append(dst, ReplAck)
	return binary.BigEndian.AppendUint64(dst, seq)
}

// ParseReplAck decodes an ack message.
func ParseReplAck(msg []byte) (seq uint64, ok bool) {
	if len(msg) != 9 || msg[0] != ReplAck {
		return 0, false
	}
	return binary.BigEndian.Uint64(msg[1:]), true
}

// ---- generation / fencing ----

// Generation returns the data directory's fencing generation. A freshly
// created directory is generation 0; every promotion advances it.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// SetGeneration durably advances the fencing generation, rewriting the
// MANIFEST atomically. Generations are monotone: lowering one is refused
// (fencing must never roll back).
func (db *DB) SetGeneration(gen uint64) error {
	db.repl.mu.Lock()
	defer db.repl.mu.Unlock()
	cur := db.gen.Load()
	if gen == cur {
		return nil
	}
	if gen < cur {
		return fmt.Errorf("durable: generation may only advance (have %d, asked for %d)", cur, gen)
	}
	m := manifest{Version: manifestVersion, Shards: len(db.shards), Procs: db.procs, Generation: gen}
	data, _ := json.Marshal(m)
	if err := AtomicWriteFileFs(db.fs, filepath.Join(db.dir, "MANIFEST"), append(data, '\n')); err != nil {
		return err
	}
	db.gen.Store(gen)
	return nil
}

// ---- replica (apply side) ----

// Replica applies a replication stream to a warm-standby DB. Put-at records
// are journaled to the backup's own write-ahead log as they arrive; session
// records are staged in memory and anchored only when a barrier arrives —
// and, during a snapshot, only at SnapEnd, so an outcome can never be
// anchored (or acked) before the snapshot hello that makes it
// recoverable — preserving outcome-implies-effect on the backup's disk.
// A snapshot's puts are journaled at SnapEnd too, behind the reconciliation
// that may have to end a session first. An anchored epoch's puts wait in
// viewStage for the epoch's commit mark before they reach the read view.
// Not safe for concurrent use; feed it one stream.
type Replica struct {
	db     *DB
	staged []byte // session records awaiting a barrier, as DB.anchor takes them
	// viewStage holds, in stream order, the shard puts not yet published to
	// the read view; held marks where each anchored, not yet committed epoch
	// ends in it. The primary sends an epoch's commit mark before the next
	// barrier, so held rarely exceeds one entry; both slices are reused.
	viewStage []viewPut
	held      []heldEpoch
	inSnap    bool
	// snapStaged: viewStage grew to hold a bootstrap snapshot, one put per
	// key, and the epoch that publishes it has not been committed yet.
	snapStaged bool
}

// heldEpoch is one epoch anchored and acknowledged here whose commit mark
// has not arrived: viewStage[:end] is what publishing it shows.
type heldEpoch struct {
	seq uint64
	end int
}

// NewReplica returns an applier feeding db. The DB must not be serving —
// it is the warm standby's.
func (db *DB) NewReplica() *Replica { return &Replica{db: db} }

// Apply folds one stream message (a frame payload: kind byte + body) into
// the backup. It returns barrier=true with the barrier's sequence when the
// message completed a durable boundary the backup should acknowledge.
func (rp *Replica) Apply(msg []byte) (seq uint64, barrier bool, err error) {
	if len(msg) < 1 {
		return 0, false, fmt.Errorf("durable: empty replication message")
	}
	body := msg[1:]
	switch msg[0] {
	case ReplSnapBegin:
		if len(body) != 20 {
			return 0, false, fmt.Errorf("durable: malformed SnapBegin")
		}
		gen := binary.BigEndian.Uint64(body)
		shards := int(binary.BigEndian.Uint32(body[8:]))
		procs := int(binary.BigEndian.Uint32(body[12:]))
		window := int(binary.BigEndian.Uint32(body[16:]))
		if shards != len(rp.db.shards) || procs != rp.db.procs || window != rp.db.sessions.window {
			return 0, false, fmt.Errorf("durable: replication geometry mismatch: primary shards=%d procs=%d window=%d, replica shards=%d procs=%d window=%d",
				shards, procs, window, len(rp.db.shards), rp.db.procs, rp.db.sessions.window)
		}
		if cur := rp.db.Generation(); gen < cur {
			return 0, false, fmt.Errorf("%w: primary gen %d < replica gen %d", ErrStalePrimary, gen, cur)
		} else if gen > cur {
			if err := rp.db.SetGeneration(gen); err != nil {
				return 0, false, err
			}
		}
		rp.inSnap = true
		rp.staged = rp.staged[:0] // a torn previous stream's stage never applies
		rp.viewStage = rp.viewStage[:0]
		rp.held = rp.held[:0]
		// The incoming snapshot supersedes the read view; until SnapEnd's
		// commit mark publishes it, the applied mark is 0 and staleness-bounded readers
		// fall back to the primary rather than read a mid-bootstrap state.
		rp.db.ResetView()
		return 0, false, nil

	case ReplShardRec:
		// The key aliases msg; the key table copies it if it is new, so a
		// put of a key this node already has allocates nothing. A value
		// outside the register domain is refused here: journaled, it would
		// make this node's directory unopenable.
		shard, key, val, err := decodePutAt(body, len(rp.db.shards), rp.db.procs)
		if err != nil {
			return 0, false, fmt.Errorf("durable: replicated %w", err)
		}
		// Journaled as it arrives, except during a snapshot: those puts may
		// overwrite the effect of an outcome this backup has to drop first
		// (reconcile), so they wait for SnapEnd in the view stage, which
		// holds them anyway.
		var n uint32
		if rp.inSnap {
			sf := rp.db.shards[shard]
			sf.mu.Lock()
			n, _ = sf.entryOf(key)
			sf.mu.Unlock()
		} else {
			n = rp.db.journalPut(shard, key, val)
		}
		// Stage for the read view; published only when the covering epoch is
		// durable here and committed on the primary.
		rp.viewStage = append(rp.viewStage, viewPut{shard: uint32(shard), n: n, val: val})
		return 0, false, nil

	case ReplSessRec:
		// A malformed record must never reach the backup's log, where it
		// would poison every future recovery.
		if _, _, _, _, _, err := parseSessRec(body); err != nil {
			return 0, false, fmt.Errorf("durable: replicated %w", err)
		}
		rp.staged = stageRec(rp.staged, body)
		return 0, false, nil

	case ReplSnapEnd:
		if len(body) != 8 {
			return 0, false, fmt.Errorf("durable: malformed SnapEnd")
		}
		if !rp.inSnap {
			return 0, false, fmt.Errorf("durable: SnapEnd without SnapBegin")
		}
		if err := rp.reconcile(); err != nil {
			return 0, false, err
		}
		rp.inSnap, rp.snapStaged = false, true
		fallthrough

	case ReplBarrier:
		if len(body) != 8 {
			return 0, false, fmt.Errorf("durable: malformed barrier")
		}
		if rp.inSnap {
			// A barrier that interleaves with the snapshot must not anchor
			// (or ack) yet: the records staged so far may reference sids
			// whose snapshot hellos are still in flight, so appending them
			// now would write outcomes the recovery path silently drops —
			// a crash-then-promote would lose a verdict the primary
			// released as durable on both nodes. Everything stays staged
			// and is applied (and first acked) at SnapEnd, when the
			// snapshot's hellos are guaranteed to be in the stage too.
			return 0, false, nil
		}
		// The backup is itself a tappable primary: anchoring here also feeds
		// its own subscribers (a chained replica) the same records, a barrier
		// and — once it is durable here — a commit mark.
		if err := rp.db.commit(func(recs []byte) []byte { return append(recs, rp.staged...) }); err != nil {
			return 0, false, err
		}
		rp.staged = rp.staged[:0]
		seq = binary.BigEndian.Uint64(body)
		// The epoch is durable on this node and is acknowledged now, but the
		// primary's own fsync of it may still be running — or may fail. Its
		// puts stay out of the read view until the commit mark.
		rp.held = append(rp.held, heldEpoch{seq: seq, end: len(rp.viewStage)})
		if MutantPublishAtBarrier {
			rp.publishThrough(seq)
		}
		return seq, true, nil

	case ReplCommit:
		if len(body) != 8 {
			return 0, false, fmt.Errorf("durable: malformed commit mark")
		}
		// A commit mark for an epoch not held here — its barrier arrived
		// mid-snapshot, where SnapEnd stands in for it — publishes nothing.
		rp.publishThrough(binary.BigEndian.Uint64(body))
		return 0, false, nil

	default:
		return 0, false, fmt.Errorf("durable: unexpected replication message kind 0x%02x", msg[0])
	}
}

// publishThrough publishes to the read view every held epoch whose sequence
// is at most seq — one atomic step, so a reader sees whole epochs only — and
// keeps what was staged behind them for the epochs to come.
func (rp *Replica) publishThrough(seq uint64) {
	n := 0
	for n < len(rp.held) && rp.held[n].seq <= seq {
		n++
	}
	if n == 0 {
		return
	}
	last := rp.held[n-1]
	rp.db.publishView(rp.viewStage[:last.end], last.seq)
	if rest := rp.viewStage[last.end:]; rp.snapStaged {
		// SnapEnd's epoch is the oldest held, so this published the snapshot.
		// A stage sized for every key of the store is not kept for epochs
		// that carry a handful; it grows back to what those need.
		rp.viewStage, rp.snapStaged = append([]viewPut(nil), rest...), false
	} else {
		rp.viewStage = rp.viewStage[:copy(rp.viewStage, rest)]
	}
	rp.held = rp.held[:copy(rp.held, rp.held[n:])]
	for i := range rp.held {
		rp.held[i].end -= last.end
	}
}

// reconcile runs at SnapEnd, ahead of the anchor that applies the stage. A
// snapshot can assert that a session, an outcome or a key exists, never
// that one does not, and this backup may hold any of the three where the
// primary does not: a session that ended while the backup was disconnected;
// or — the backup fsyncs an epoch while the primary does — the outcomes and
// puts of an epoch the primary lost by crashing before its own fsync
// returned. Left alone, a later promotion would replay a verdict whose
// effect the snapshot overwrote, or serve a value no linearized write
// produced. So whatever the snapshot and the records tapped beside it did
// not assert is dropped, durably.
//
// Order keeps the backup's disk crash-consistent throughout. First the
// stale sessions — one the snapshot does not open, or one holding an
// outcome the snapshot does not repeat — are ended with an anchor of their
// own (one more fsync, only when there are any); the snapshot's own hello
// and outcomes, later in the stage, open the second kind again. Only then
// are the snapshot's puts journaled, and a zero (the durable-root "absent")
// for every key they did not mention, so no prefix of the log shows a
// verdict above a value that no longer carries its effect. A crash between
// the two anchors leaves the ended sessions missing from a backup that had
// not acknowledged SnapEnd, and so was not a synced standby either way.
func (rp *Replica) reconcile() error {
	helloed := make(map[uint64]struct{})
	type outcomeID struct{ sid, req uint64 }
	asserted := make(map[outcomeID]struct{})
	maxReq := make(map[uint64]uint64)
	if err := eachStaged(rp.staged, func(rec []byte) error {
		kind, sid, req, _, _, err := parseSessRec(rec)
		if err != nil {
			return err
		}
		switch kind {
		case recHello:
			helloed[sid] = struct{}{}
		case recOutcome:
			asserted[outcomeID{sid, req}] = struct{}{}
			if req > maxReq[sid] {
				maxReq[sid] = req
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ss := &rp.db.sessions
	var staleSIDs []uint64
	ss.mu.Lock()
	for sid, s := range ss.state {
		_, live := helloed[sid]
		stale := !live
		for req := range s.Window {
			// An unasserted outcome the asserted ones will evict anyway is
			// merely old, not stale.
			if _, ok := asserted[outcomeID{sid, req}]; !ok && (req > maxReq[sid] || maxReq[sid]-req < uint64(ss.window)) {
				stale = true
			}
		}
		if stale {
			staleSIDs = append(staleSIDs, sid)
		}
	}
	ss.mu.Unlock()
	if len(staleSIDs) > 0 {
		// Sorted, like the keys below: a deterministic log for the
		// crash-prefix sweeps.
		slices.Sort(staleSIDs)
		var ends []byte
		for _, sid := range staleSIDs {
			ends = stageSID(ends, recEnd, sid)
		}
		if err := rp.db.commit(func(recs []byte) []byte { return append(recs, ends...) }); err != nil {
			return err
		}
	}

	for _, p := range rp.viewStage {
		tab := &rp.db.shards[p.shard].tab
		rp.db.journalPut(int(p.shard), tab.Name(p.n), p.val)
		tab.At(p.n).asserted = true
	}
	for i, sf := range rp.db.shards {
		var stale []string
		sf.mu.Lock()
		for n, e := range sf.tab.All() {
			if !e.asserted && e.inLog && e.journaled != 0 {
				stale = append(stale, sf.tab.Name(n))
			}
			e.asserted = false
		}
		sf.mu.Unlock()
		sort.Strings(stale)
		for _, key := range stale {
			rp.db.journalPut(i, key, 0)
		}
	}
	return nil
}
