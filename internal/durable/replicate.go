package durable

// Primary/backup replication over the durable layer (docs/REPLICATION.md):
// the primary ships its write-ahead log, and a standby's log holds the
// primary's records.
//
// A new subscriber first receives a bootstrap: SnapBegin (the generation
// fence and the geometry), the records a compaction would write now
// (emitState) and a barrier, all taken under lockAll once every staged record
// is durable here — no commit interleaves with it. The standby installs it
// with Log.Rewrite, crash-atomically, rebuilds its mirrors from it and only
// then acknowledges the barrier: bootstrap replaces, it does not merge.
//
// From then on the stream is the log itself. The Log hands every batch of
// framed records to the tap as it leaves the staging buffer (Log.tap), and a
// compaction syncs what is staged before it rewrites (DB.syncStaged), so
// every record reaches the stream in file order. An epoch's batch and its
// barrier go out *before* the primary's own fsync starts, and a commit mark
// once that fsync has returned: the two nodes' fsyncs of one epoch run side
// by side. The standby checks every frame and decodes every record as it
// arrives, stages the bytes as they are in an epoch of its own at the
// barrier — one write, one fsync — folds the epoch's puts into its key
// table once that fsync has returned, and acknowledges it; the puts reach
// its read view (view.go) at the commit mark. With compaction off, its log
// past the bootstrap is the primary's past the bootstrap point, byte for
// byte.
//
// A subscriber gates verdict release once it has acked its bootstrap
// barrier: from then on DB.anchor waits for its ack of each epoch's barrier,
// so a verdict is released only once its epoch is durable on both nodes. A
// laggard past the ack timeout is dropped (replication degrades; the
// primary's durability never does), and bootstrap bytes are exempt from the
// backlog limit, so a state larger than the limit still bootstraps.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Replication stream message kinds. Each message travels as one
// u32-length-prefixed frame: kind byte, then the body.
const (
	// ReplSnapBegin opens a bootstrap: u64 generation, u32 shards, u32
	// procs, u32 window, checked first; the records up to the next barrier
	// are the bootstrap, which replaces the backup's log.
	ReplSnapBegin byte = 0x01
	// ReplLog is write-ahead-log records exactly as they sit in the
	// primary's file: a run of whole frames (u32 length, u32 CRC-32C,
	// payload) in file order.
	ReplLog byte = 0x02
	// ReplBarrier closes one commit epoch, or a bootstrap: u64 sequence. An
	// epoch's barrier is sent before the primary's fsync of it starts.
	ReplBarrier byte = 0x05
	// ReplAck flows backup→primary: u64 sequence, acknowledging that
	// every record up to that barrier is durable on the backup.
	ReplAck byte = 0x06
	// ReplCommit says the primary's own fsync of the epoch closed by the
	// barrier of this sequence has returned: u64 sequence. The backup may
	// show that epoch to readers from here on.
	ReplCommit byte = 0x07
)

// MaxReplMsg bounds one stream message, kind byte included: the wire's frame
// limit (server.MaxFrame). A longer batch goes out as several ReplLog
// messages, split between records.
const MaxReplMsg = 1 << 20

// DefaultReplSubLimit bounds a subscriber's pending live-tap backlog; a
// backup that falls further behind than this is dropped rather than
// stalling the primary's memory. Bootstrap bytes are exempt (ReplSub.stage).
const DefaultReplSubLimit = 64 << 20

// DefaultReplAckTimeout bounds how long a commit waits for a gating
// subscriber's barrier ack before dropping it and degrading to
// unreplicated operation.
const DefaultReplAckTimeout = 10 * time.Second

// ErrStalePrimary is returned (wrapped) by Replica.Apply when the primary
// announces a generation below the replica's own: the replica has been
// promoted past that primary and must never accept its stream.
var ErrStalePrimary = errors.New("durable: primary generation is behind this replica (fenced)")

var errReplaced = errors.New("durable: a bootstrap replaced this node's log")

// replLogKind is the header of a ReplLog message.
var replLogKind = []byte{ReplLog}

// replState is the primary-side replication hub embedded in DB.
type replState struct {
	nsubs      atomic.Int32  // registered subscribers (fast-path gate for taps)
	nsync      atomic.Int32  // gating subscribers: subs whose bootstrap barrier is acked
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
	r     *replState
	limit int

	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte // pending framed messages
	spare     []byte // the buffer Next handed out last time, recycled
	snapBytes int    // bytes of buf staged by the bootstrap, exempt from limit
	snapSeq   uint64 // barrier sequence of this sub's bootstrap (0 until staged)
	gating    bool   // the bootstrap barrier is acked; counted in nsync
	acked     uint64
	closed    bool
	err       error
	timer     *time.Timer // wakes timed-out awaitAck waiters (wakeByLocked)
	wakeAt    time.Time   // when timer next fires; zero when it is not armed
}

// Subscribe registers a replication subscriber and stages a bootstrap of
// the current state followed by the live tap. limit bounds the pending
// live-tap backlog (≤ 0 means DefaultReplSubLimit). Once the subscriber has
// acknowledged its bootstrap's barrier, commits wait for its barrier acks
// (Ack); a subscriber that never acks is a passive tap.
func (db *DB) Subscribe(limit int) *ReplSub {
	if limit <= 0 {
		limit = DefaultReplSubLimit
	}
	sub := &ReplSub{r: &db.repl, limit: limit}
	sub.cond = sync.NewCond(&sub.mu)

	// Under lockAll nothing is journaled, anchored or tapped, so the live
	// tap starts where the bootstrap ends. The staged records are synced
	// first, their batch going to the subscribers already attached
	// (syncStaged): the bootstrap vouches for what is durable here, and its
	// puts carry no stamps.
	defer db.lockAll()()
	var boot []byte
	err := db.syncStaged()
	if err == nil {
		err = db.emitState(func(rec []byte) error {
			boot = appendFrame(boot, rec)
			return nil
		})
	}
	if err != nil {
		sub.closeLocked(err)
		return sub
	}
	// The bootstrap's barrier sequence is allocated under sessions.mu like
	// every other, and acking it is what turns the subscription into a
	// commit gate (Ack). The bootstrap is durable here, so its commit
	// mark follows at once.
	r := &db.repl
	seq := r.seq.Add(1)
	r.committed.Store(seq)
	var hdr [21]byte
	hdr[0] = ReplSnapBegin
	binary.BigEndian.PutUint64(hdr[1:], db.gen.Load())
	binary.BigEndian.PutUint32(hdr[9:], uint32(len(db.shards)))
	binary.BigEndian.PutUint32(hdr[13:], uint32(db.procs))
	binary.BigEndian.PutUint32(hdr[17:], uint32(db.sessions.window))
	sub.stage(hdr[:], nil, true)
	eachMsg(boot, func(body []byte) { sub.stage(replLogKind, body, true) })
	sub.stage(seqMsg(ReplBarrier, seq), nil, true)
	sub.stage(seqMsg(ReplCommit, seq), nil, true)
	sub.snapSeq = seq // not yet shared

	r.mu.Lock()
	if r.subs == nil {
		r.subs = make(map[*ReplSub]struct{})
	}
	r.subs[sub] = struct{}{}
	r.nsubs.Add(1)
	r.mu.Unlock()
	return sub
}

// eachMsg splits framed, a run of whole frames, into the bodies of ReplLog
// messages: as many records as fit behind the kind byte in MaxReplMsg.
func eachMsg(framed []byte, fn func(body []byte)) {
	for len(framed) > MaxReplMsg-1 {
		n := 0
		for n < len(framed) {
			size := frameHeader + int(binary.BigEndian.Uint32(framed[n:]))
			if n > 0 && n+size > MaxReplMsg-1 {
				break
			}
			n += size
		}
		fn(framed[:n])
		framed = framed[n:]
	}
	if len(framed) > 0 {
		fn(framed)
	}
}

// seqMsg encodes a kind + u64 sequence message (Barrier, Commit).
func seqMsg(kind byte, seq uint64) []byte {
	var msg [9]byte
	msg[0] = kind
	binary.BigEndian.PutUint64(msg[1:], seq)
	return msg[:]
}

// SetReplAckTimeout overrides how long commits wait for a gating
// subscriber's barrier ack before dropping it (0 restores the default).
func (db *DB) SetReplAckTimeout(d time.Duration) { db.repl.ackTimeout.Store(int64(d)) }

// ReplStatus reports the replication high-water marks: the latest barrier
// sequence anchored on this node (its own fsync returned — not merely
// allocated and streamed), the lowest sequence acknowledged by every
// gating subscriber — one that has acked its bootstrap (0 when there are
// none; a standby fsyncs an epoch beside the primary, so this may run one
// ahead of seq) — and the subscriber count.
func (db *DB) ReplStatus() (seq, acked uint64, subs int) {
	r := &db.repl
	r.mu.Lock()
	defer r.mu.Unlock()
	synced := false
	for sub := range r.subs {
		subs++
		sub.mu.Lock()
		if sub.gating && (!synced || sub.acked < acked) {
			acked, synced = sub.acked, true
		}
		sub.mu.Unlock()
	}
	return r.committed.Load(), acked, subs
}

// ---- primary-side tap ----

// tapRecords stages a batch of framed records to every subscriber as ReplLog
// messages. It is the log's tap (Log.tap): called under the log's barrier
// lock with every batch before its write.
func (r *replState) tapRecords(framed []byte) {
	if r.nsubs.Load() != 0 {
		eachMsg(framed, func(body []byte) { r.tapMsg(replLogKind, body) })
	}
}

// tapBarrier stages the barrier of epoch seq. Called from DB.anchor with
// sessions.mu held, behind the epoch's batch and before its fsync — every
// barrier sequence is allocated under that lock, so the stream order of
// barriers matches sequence order.
func (r *replState) tapBarrier(seq uint64) {
	if r.nsubs.Load() != 0 {
		r.tapMsg(seqMsg(ReplBarrier, seq), nil)
	}
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

// dropAll closes every subscription with err: a standby whose log a
// bootstrap replaced drops its own subscribers, which bootstrap again.
func (r *replState) dropAll(err error) {
	r.mu.Lock()
	subs := slices.Collect(maps.Keys(r.subs))
	r.mu.Unlock()
	for _, sub := range subs {
		sub.Fail(err)
	}
}

// tapMsg stages one message to every subscriber, dropping each one that is
// closed or falls past its backlog limit.
func (r *replState) tapMsg(hdr, rec []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for sub := range r.subs {
		if !sub.stage(hdr, rec, false) {
			r.dropLocked(sub)
		}
	}
}

// dropLocked forgets sub, closed already, and says so when it was gating
// commits and failed: after an ack timeout, a backlog overflow or its
// stream breaking, verdicts are released on this node's fsync alone until a
// standby has bootstrapped again. A clean Close — this node shutting down —
// degrades nothing and logs nothing. Called with r.mu held; r.mu → s.mu is
// the tap path's lock order.
func (r *replState) dropLocked(sub *ReplSub) {
	if _, ok := r.subs[sub]; !ok {
		return
	}
	delete(r.subs, sub)
	r.nsubs.Add(-1)
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if !sub.gating {
		return
	}
	sub.gating = false
	r.nsync.Add(-1)
	if sub.err == nil {
		return
	}
	slog.Warn("replication degraded: sync standby no longer gates commits",
		"cause", sub.err.Error(), "seq", r.seq.Load(), "acked", sub.acked, "backlog_bytes", len(sub.buf)-sub.snapBytes)
}

// waitBarrier blocks until every gating subscriber — one whose bootstrap
// barrier has been acked — has acknowledged barrier seq, closed, or stalled
// past the ack timeout, which drops it: one dead replica cannot wedge the
// primary, whose durability is unaffected. A subscriber still transferring
// or installing its bootstrap is not waited on: its first ack may
// legitimately take longer than the ack timeout, and dropping it for that
// would re-bootstrap large replicas forever. Called with no DB locks held —
// commit paths release sessions.mu first, so the backup's ack path can
// never deadlock against the primary's commit path.
func (r *replState) waitBarrier(seq uint64) {
	if r.nsync.Load() == 0 {
		return
	}
	var buf [4]*ReplSub // one gating subscriber is the deployment there is
	gating := buf[:0]
	r.mu.Lock()
	for sub := range r.subs {
		sub.mu.Lock()
		if sub.gating {
			gating = append(gating, sub)
		}
		sub.mu.Unlock()
	}
	r.mu.Unlock()
	timeout := time.Duration(r.ackTimeout.Load())
	if timeout == 0 {
		timeout = DefaultReplAckTimeout
	}
	for _, sub := range gating {
		if !sub.awaitAck(seq, timeout) {
			sub.Fail(fmt.Errorf("durable: replication ack for barrier %d timed out after %v", seq, timeout))
		}
	}
}

// ---- subscriber ----

// stage appends one framed message (hdr ++ rec) to the pending buffer and
// reports whether the subscription is still open. The backlog limit applies
// to the live tap only: a bootstrap (boot) is as large as the state, so its
// bytes are exempt (snapBytes), or a state larger than the limit could never
// bootstrap, nor a tap get through while one is buffered.
func (s *ReplSub) stage(hdr, rec []byte, boot bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	n := 4 + len(hdr) + len(rec)
	if boot {
		s.snapBytes += n
	} else if backlog := len(s.buf) - s.snapBytes; backlog+n > s.limit {
		s.closeLocked(fmt.Errorf("durable: replication subscriber fell %d bytes behind (limit %d)", backlog, s.limit))
		return false
	}
	s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(len(hdr)+len(rec)))
	s.buf = append(append(s.buf, hdr...), rec...)
	s.cond.Broadcast()
	return true
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
	s.snapBytes = 0 // the whole buffer drained, bootstrap bytes included
	return out, nil
}

// Ack raises the subscriber's acknowledged barrier sequence, releasing any
// commit waiting on it. The ack that first covers the subscription's
// bootstrap barrier also engages commit gating: from then on — and only
// then — the subscription counts toward nsync, so a replica still
// bootstrapping never stalls (or gets dropped by) the primary's commits.
func (s *ReplSub) Ack(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.acked {
		s.acked = seq
		s.cond.Broadcast()
	}
	if !s.gating && !s.closed && s.snapSeq != 0 && s.acked >= s.snapSeq {
		// A sub is closed before it is dropped, so engaging here, on an
		// open one, pairs exactly once with the disengage in dropLocked.
		s.gating = true
		s.r.nsync.Add(1)
		slog.Info("replication: sync standby bootstrapped, commits now wait for its acks",
			"seq", s.r.seq.Load(), "acked", s.acked, "backlog_bytes", len(s.buf)-s.snapBytes)
	}
}

// awaitAck waits until acked ≥ seq or the timeout elapses. Returns whether
// the ack arrived (a closed subscription counts only if it acked first).
func (s *ReplSub) awaitAck(seq uint64, timeout time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
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
func (s *ReplSub) Close() { s.Fail(nil) }

// Fail closes the subscription because its stream broke (err nil: cleanly,
// as Close) and drops it; a gating one logs the degradation with err as its
// cause. The first close wins.
func (s *ReplSub) Fail(err error) {
	s.mu.Lock()
	s.closeLocked(err)
	s.mu.Unlock()
	s.r.mu.Lock()
	s.r.dropLocked(s)
	s.r.mu.Unlock()
}

// closeLocked marks the subscription closed, keeping the first error. Called
// with s.mu held; the caller drops it from the hub.
func (s *ReplSub) closeLocked(err error) {
	if s.closed {
		return
	}
	s.closed, s.err = true, err
	if s.timer != nil {
		s.timer.Stop()
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

// Replica turns a replication stream into this warm standby's log records.
// Records are checked as they arrive and gathered until their barrier, which
// installs a bootstrap in place of the backup's log (DB.install) or anchors
// an epoch that stages the live records in it as they are; only then is the
// barrier acknowledged. Each put is resolved in the key table once, when its
// epoch is folded (DB.foldLocked), and shown at the epoch's commit mark
// (DB.publishThrough). Not safe for concurrent use; feed it one stream.
type Replica struct {
	db      *DB
	batch   []byte // records since the last barrier, framed as the primary's log holds them
	booting bool   // batch is a bootstrap: a SnapBegin came after the last barrier
}

// NewReplica returns an applier feeding db, whose fold stages puts for the
// read view from now on. db must not be serving — it is the warm standby's.
func (db *DB) NewReplica() *Replica {
	db.sessions.mu.Lock()
	db.view.stages = true
	db.sessions.mu.Unlock()
	return &Replica{db: db}
}

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
		// A torn previous stream's records never apply.
		rp.booting, rp.batch = true, rp.batch[:0]
		// The bootstrap supersedes the read view and its stage; until its commit
		// mark publishes it, the applied mark is 0 and staleness-bounded readers
		// fall back to the primary rather than read a mid-bootstrap state.
		rp.db.ResetView()
		return 0, false, nil

	case ReplLog:
		// Every record is decoded before any is kept: a malformed one, or a
		// value outside the register domain, must never reach this node's
		// log, where it would fail every later open. Nothing is resolved in
		// the key table yet, so a message refused part-way leaves nothing
		// behind.
		if err := eachFrame(body, func(rec []byte) error {
			if rec[0] != recPutAt {
				_, _, _, _, _, err := parseSessRec(rec)
				return err
			}
			_, err := decodePutAt(rec, len(rp.db.shards), rp.db.procs)
			return err
		}); err != nil {
			return 0, false, fmt.Errorf("durable: replicated %w", err)
		}
		rp.batch = append(rp.batch, body...)
		return 0, false, nil

	case ReplBarrier:
		if len(body) != 8 {
			return 0, false, fmt.Errorf("durable: malformed barrier")
		}
		if rp.booting {
			if err := rp.db.install(rp.batch); err != nil {
				return 0, false, err
			}
			rp.batch, rp.booting = nil, false // as large as the state: not kept
		} else {
			// The backup is itself a tappable primary: anchoring here also
			// feeds its own subscribers (a chained replica) the same records,
			// a barrier and — once it is durable here — a commit mark. The
			// anchor folds the epoch's puts once its fsync has returned.
			if err := rp.db.commit(func(recs []byte) []byte { return append(recs, rp.batch...) }); err != nil {
				return 0, false, err
			}
			rp.batch = rp.batch[:0]
		}
		seq = binary.BigEndian.Uint64(body)
		// The epoch is durable on this node and is acknowledged now, but the
		// primary's own fsync of it may still be running — or may fail. Its
		// puts stay out of the read view until the commit mark.
		rp.db.holdView(seq)
		return seq, true, nil

	case ReplCommit:
		if len(body) != 8 {
			return 0, false, fmt.Errorf("durable: malformed commit mark")
		}
		rp.db.publishThrough(binary.BigEndian.Uint64(body))
		return 0, false, nil

	default:
		return 0, false, fmt.Errorf("durable: unexpected replication message kind 0x%02x", msg[0])
	}
}

// install replaces this node's log and mirrors with a bootstrap — framed
// records, what a compaction on the primary would have written — and stages
// the view put of every key it holds (foldLocked). The log is replaced by
// Log.Rewrite, so a crash leaves the old log or the bootstrap, and the
// mirrors are rebuilt from the records, under lockAll; its own subscribers
// are dropped first, to bootstrap again from the new log.
func (db *DB) install(framed []byte) error {
	start := time.Now()
	db.repl.dropAll(errReplaced)
	defer db.lockAll()()
	if err := db.wal.Rewrite(func(add func(rec []byte) error) error { return eachFrame(framed, add) }); err != nil {
		return err
	}
	for _, sf := range db.shards {
		for _, e := range sf.tab.All() {
			e.inLog = false
		}
	}
	db.sessions.state, db.sessions.nextSID = make(map[uint64]mirrored), 0
	clear(db.sessions.holders)
	records := 0
	if err := eachFrame(framed, func(rec []byte) error {
		records++
		return db.foldLocked(rec)
	}); err != nil {
		return err
	}
	slog.Info("durable: bootstrap installed", "path", db.wal.path, "generation", db.gen.Load(),
		"records", records, "bytes", len(framed), "duration", time.Since(start))
	return nil
}
