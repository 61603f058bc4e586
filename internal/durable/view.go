package durable

// The replica's applied-state read view (docs/REPLICATION.md §read
// replicas).
//
// A standby serving GET traffic must never expose a half-applied state:
// the shard mirrors advance record-by-record as the stream arrives (eager
// journaling keeps the backup's disk crash-consistent), so reading them
// directly could observe the middle of a snapshot transfer or a partial
// commit epoch. Nor may it expose an epoch only this node has fsynced: the
// standby anchors an epoch while the primary's own fsync of it is still
// running, and that fsync can fail, or the primary can crash under it and
// come back without the epoch. So shard puts accumulate in a per-stream
// stage and are published to the read view only when the epoch that covers
// them — a barrier, or SnapEnd for an entire bootstrap snapshot — is
// durable on this node *and* its commit mark says it is durable on the
// primary (Replica.publishThrough). Every put ahead of a barrier on the
// stream is in the log batch that commit mark vouches for. Between commit
// marks the view is immutable, so every read observes a prefix of the
// primary's commit order: bounded-stale, never torn, never a value the
// primary failed to commit.
//
// ViewSeq is the primary-stream barrier sequence the view has applied
// through — the replica's "applied" mark that OpServerStats reports next
// to the primary's committed mark, giving clients a replication-lag bound
// to check against their staleness budget. It never exceeds that mark.

import (
	"sync"
	"sync/atomic"
)

// viewPut is one staged shard put awaiting publication. The key is already
// owned (decodePut copies it out of the stream frame).
type viewPut struct {
	shard int
	key   string
	val   int64
}

// replView is the barrier-consistent applied-state view replica reads are
// served from. Writers (the single replication-apply goroutine) publish
// whole epochs under mu; readers take the read lock, so a GET never
// observes an epoch half-applied.
type replView struct {
	mu     sync.RWMutex
	shards []map[string]int64
	seq    atomic.Uint64 // primary barrier sequence applied through
}

// publishView folds the staged puts of the epochs committed through seq
// into the read view and raises the applied mark to seq. The map updates
// complete before the seq store, so a reader that observes ViewSeq() ≥ seq
// also observes every put those epochs covered.
func (db *DB) publishView(stage []viewPut, seq uint64) {
	v := &db.view
	v.mu.Lock()
	if v.shards == nil {
		v.shards = make([]map[string]int64, len(db.shards))
		for i := range v.shards {
			v.shards[i] = make(map[string]int64)
		}
	}
	for _, p := range stage {
		v.shards[p.shard][p.key] = p.val
	}
	v.mu.Unlock()
	v.seq.Store(seq)
}

// ResetView empties the read view and zeroes the applied mark. Called when
// a new snapshot stream begins: the incoming snapshot supersedes whatever
// the view held, and until its SnapEnd's commit mark publishes, the replica
// has no consistent state to serve — a zero applied mark is what trips the
// client's staleness fallback to the primary for the duration. And called
// at promotion: the node's reads come from its store from then on.
func (db *DB) ResetView() {
	v := &db.view
	v.mu.Lock()
	v.shards = nil
	v.mu.Unlock()
	v.seq.Store(0)
}

// ViewGet reads key from shard i's barrier-consistent applied view.
// Missing keys (including the whole view before the first barrier
// publishes) read as (0, false) — the durable-root convention that a key
// never written holds zero. Safe for concurrent use; allocation-free.
func (db *DB) ViewGet(i int, key string) (int64, bool) {
	v := &db.view
	v.mu.RLock()
	if v.shards == nil {
		v.mu.RUnlock()
		return 0, false
	}
	val, ok := v.shards[i][key]
	v.mu.RUnlock()
	return val, ok
}

// ViewSeq returns the primary-stream barrier sequence the read view has
// applied through: 0 until the bootstrap snapshot's commit mark publishes,
// monotone within one stream. OpServerStats reports it as the
// standby's applied mark.
func (db *DB) ViewSeq() uint64 { return db.view.seq.Load() }

// MirrorGet reads key from shard i's durable mirror — the primary-side
// counterpart of ViewGet, used to serve read-only sessions on a durable
// primary where the mirror IS the committed state.
func (db *DB) MirrorGet(i int, key string) (int64, bool) {
	sf := db.shards[i]
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if p := sf.state[key]; p != nil {
		return *p, true
	}
	return 0, false
}
