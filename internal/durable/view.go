package durable

// The applied-state read view (docs/REPLICATION.md §"The applied view"):
// what every GET on a durable node reads.
//
// A read must never expose an epoch a crash can still undo: a primary's
// store holds a put as soon as it linearizes, and a standby anchors an epoch
// while the primary's own fsync of it may still fail. So a key's entry
// (db.go) holds two values: the one last journaled, and the one applied —
// what a GET reads. A put is staged as (shard, entry number, value) when the
// fold after its epoch's fsync takes it (foldLocked) and stored into the
// applied words once the epoch is durable on every node that gates it
// (publishThrough): at its commit mark on a standby, after the gating ack on
// the node that leads (DB.anchor). So every read observes a prefix of the log
// in log order, the order recovery replays: never torn, never a value a crash
// can roll back.
//
// A publication is one step to readers without a lock they would have to
// write: the stores sit inside a sequence counter's odd phase, and a GET
// that finds the counter odd, or changed across its two loads, reads again.
// A reader that has seen any put of an epoch therefore read it after the
// epoch's last store, and sees all of it from then on.
//
// ViewSeq is the barrier sequence the view has applied through — on a
// standby the primary's: the replica's "applied" mark that OpServerStats
// reports next to the primary's committed mark, giving clients a
// replication-lag bound to check against their staleness budget; it never
// exceeds that mark.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// viewPut is one staged shard put awaiting publication: the key's entry, as
// its shard and its number in that shard's table, and the value the commit
// mark will show. 16 bytes.
type viewPut struct {
	shard, n uint32
	val      int64
}

// viewState is what the applied view keeps beside the entries.
type viewState struct {
	mu  sync.Mutex    // guards stage and held, serializes publications and resets; readers never take it
	ver atomic.Uint64 // odd while a publication or a reset is storing
	// gen is the view's generation. An entry's applied value counts only
	// while the entry's viewGen equals it, so raising it empties the view.
	gen atomic.Uint32
	seq atomic.Uint64 // primary barrier sequence applied through
	// stage holds the puts folded here and not yet published, in stream
	// order; held marks where each anchored, uncommitted epoch ends in it.
	// A commit mark precedes the next barrier, so held rarely exceeds one.
	stage []viewPut
	held  []heldEpoch
	lead  bool // anchors publish their own epochs (DB.Lead); guarded by sessions.mu
	// stages makes the fold stage each put (foldLocked): set by NewReplica
	// and DB.Lead, on the nodes whose view publishes; guarded by sessions.mu.
	stages bool
}

// heldEpoch is one epoch durable here that awaits its commit mark, or its
// gating acks on a node that leads: stage[:end] is what publishing it shows.
type heldEpoch struct {
	seq uint64
	end int
}

// maxStage bounds the stage a publication keeps for the epochs after it:
// one that grew for a bootstrap — a put per key — or a wide epoch grows
// back to what they need instead.
const maxStage = maxSpare / 16

// holdView marks the end of epoch seq, durable here, in the stage: its puts
// wait there for the epoch's commit mark or gating acks.
func (db *DB) holdView(seq uint64) {
	v := &db.view
	v.mu.Lock()
	v.held = append(v.held, heldEpoch{seq: seq, end: len(v.stage)})
	v.mu.Unlock()
	if MutantPublishAtBarrier {
		db.publishThrough(seq)
	}
}

// publishThrough stores the staged puts of every held epoch whose sequence
// is at most seq into their entries and raises the applied mark to the last
// of them, as one step to readers, and keeps what was staged behind them for
// the epochs to come. The mark is stored after the values, so a reader that
// observes ViewSeq() ≥ n also observes every put through barrier n.
func (db *DB) publishThrough(seq uint64) {
	v := &db.view
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for n < len(v.held) && v.held[n].seq <= seq {
		n++
	}
	if n == 0 {
		return
	}
	last := v.held[n-1]
	v.ver.Add(1)
	gen := v.gen.Load()
	for _, p := range v.stage[:last.end] {
		e := db.shards[p.shard].tab.At(p.n)
		e.applied.Store(p.val)
		e.viewGen.Store(gen)
	}
	v.seq.Store(last.seq)
	v.ver.Add(1)
	if rest := v.stage[last.end:]; cap(v.stage) > maxStage {
		v.stage = append([]viewPut(nil), rest...)
	} else {
		v.stage = v.stage[:copy(v.stage, rest)]
	}
	v.held = v.held[:copy(v.held, v.held[n:])]
	for i := range v.held {
		v.held[i].end -= last.end
	}
}

// Lead publishes every key's journaled value at once and makes each later
// fold stage its puts and each later anchor publish its own epoch
// (DB.anchor). Called on what recovery found, and at promotion, whose store
// holds every epoch the standby held.
func (db *DB) Lead() {
	defer db.lockAll()()
	v := &db.view
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ver.Add(1)
	gen := v.gen.Add(1)
	for _, sf := range db.shards {
		for _, e := range sf.tab.All() {
			if e.inLog {
				e.applied.Store(e.journaled)
				e.viewGen.Store(gen)
			}
		}
	}
	v.ver.Add(1)
	v.stage, v.held, v.lead, v.stages = v.stage[:0], v.held[:0], true, true
}

// ResetView empties the read view and its stage and zeroes the applied
// mark. Called on a standby when a bootstrap begins: it supersedes whatever
// the view held, and until its commit mark publishes, the replica has no
// consistent state to serve — a zero applied mark is what trips the
// client's staleness fallback to the primary for the duration.
func (db *DB) ResetView() {
	v := &db.view
	v.mu.Lock()
	v.ver.Add(1)
	v.seq.Store(0)
	v.gen.Add(1)
	v.ver.Add(1)
	v.stage, v.held = v.stage[:0], v.held[:0]
	v.mu.Unlock()
}

// ViewGet reads key from shard i's barrier-consistent applied view.
// Missing keys (including the whole view before the first commit mark
// publishes) read as (0, false) — the durable-root convention that a key
// never written holds zero. Safe for concurrent use; lock-free and
// allocation-free.
func (db *DB) ViewGet(i int, key string) (int64, bool) {
	_, e := db.shards[i].tab.Lookup(key)
	if e == nil {
		return 0, false
	}
	v := &db.view
	for {
		if ver := v.ver.Load(); ver&1 == 0 {
			val, ok := e.applied.Load(), e.viewGen.Load() == v.gen.Load()
			if v.ver.Load() == ver {
				if !ok {
					val = 0 // a value of an older generation
				}
				return val, ok
			}
		}
		runtime.Gosched() // a publication is storing; let it finish
	}
}

// ViewSeq returns the barrier sequence the read view has applied through:
// on a standby the primary's, 0 until the bootstrap's commit mark
// publishes, monotone within one stream. OpServerStats reports it as the
// standby's applied mark.
func (db *DB) ViewSeq() uint64 { return db.view.seq.Load() }

// MirrorGet reads the value of key's last durable put in shard i: the state
// a reopen of this directory would recover. Nothing serves from it — every
// GET on a durable node reads ViewGet; it is the reader the replica and
// crash-image tests compare a view, a peer or a recovered image with.
func (db *DB) MirrorGet(i int, key string) (int64, bool) {
	sf := db.shards[i]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if _, e := sf.tab.Lookup(key); e != nil && e.inLog {
		return e.journaled, true
	}
	return 0, false
}
