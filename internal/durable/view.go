package durable

// The replica's applied-state read view (docs/REPLICATION.md §read
// replicas).
//
// A standby serving GET traffic must never expose an epoch only this node
// has fsynced: it anchors an epoch while the primary's own fsync of it is
// still running, and that fsync can fail, or the primary can crash under it
// and come back without the epoch. So a key's entry (db.go) holds two
// values: the one last journaled, and the one applied — what a GET reads.
// Streamed puts accumulate in a per-stream stage as (shard, entry number,
// value) and are stored into the applied words only when the epoch that
// covers them — a barrier's, or a whole bootstrap's — is durable here *and*
// its commit mark says it is durable on the primary
// (Replica.publishThrough). Between commit marks the view is immutable, so
// every read observes a prefix of the primary's commit order:
// bounded-stale, never torn, never a value the primary failed to commit.
//
// A publication is one step to readers without a lock they would have to
// write: the stores sit inside a sequence counter's odd phase, and a GET
// that finds the counter odd, or changed across its two loads, reads again.
// A reader that has seen any put of an epoch therefore read it after the
// epoch's last store, and sees all of it from then on.
//
// ViewSeq is the primary-stream barrier sequence the view has applied
// through — the replica's "applied" mark that OpServerStats reports next
// to the primary's committed mark, giving clients a replication-lag bound
// to check against their staleness budget. It never exceeds that mark.

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
	mu  sync.Mutex    // serializes publishView and ResetView; readers never take it
	ver atomic.Uint64 // odd while a publication or a reset is storing
	// gen is the view's generation. An entry's applied value counts only
	// while the entry's viewGen equals it, so raising it empties the view.
	gen atomic.Uint32
	seq atomic.Uint64 // primary barrier sequence applied through
}

// publishView stores the staged puts of the epochs committed through seq
// into their entries and raises the applied mark to seq, as one step to
// readers. The mark is stored after the values, so a reader that observes
// ViewSeq() ≥ seq also observes every put those epochs covered.
func (db *DB) publishView(stage []viewPut, seq uint64) {
	v := &db.view
	v.mu.Lock()
	v.ver.Add(1)
	gen := v.gen.Load()
	for _, p := range stage {
		e := db.shards[p.shard].tab.At(p.n)
		e.applied.Store(p.val)
		e.viewGen.Store(gen)
	}
	v.seq.Store(seq)
	v.ver.Add(1)
	v.mu.Unlock()
}

// ResetView empties the read view and zeroes the applied mark. Called when
// a bootstrap begins: it supersedes whatever the view held, and until its
// commit mark publishes, the replica has no consistent state to serve — a
// zero applied mark is what trips the client's staleness fallback to the
// primary for the duration. And called
// at promotion: the node's reads come from its store from then on.
func (db *DB) ResetView() {
	v := &db.view
	v.mu.Lock()
	v.ver.Add(1)
	v.seq.Store(0)
	v.gen.Add(1)
	v.ver.Add(1)
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

// ViewSeq returns the primary-stream barrier sequence the read view has
// applied through: 0 until the bootstrap's commit mark publishes,
// monotone within one stream. OpServerStats reports it as the
// standby's applied mark.
func (db *DB) ViewSeq() uint64 { return db.view.seq.Load() }

// MirrorGet reads the value last journaled for key in shard i: the state a
// reopen of this directory would recover once the log is synced. Nothing
// serves from it — a primary's read-only sessions Peek the store, a
// standby's read ViewGet; it is the reader the replica and crash-image tests
// compare a view, a peer or a recovered image with.
func (db *DB) MirrorGet(i int, key string) (int64, bool) {
	sf := db.shards[i]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if _, e := sf.tab.Lookup(key); e != nil && e.inLog {
		return e.journaled, true
	}
	return 0, false
}
