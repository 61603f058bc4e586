package durable

import (
	"hash/maphash"
	"iter"
	"strings"
	"sync/atomic"
)

// table is one shard's key table: everything this layer keeps per key — the
// key's name, the value last journaled for it and the value the replica read
// view shows — is one entry, and a key is resolved to its entry by an
// insert-only open-addressed index with lock-free lookup.
//
// The design is internal/kv's cowTable (the index doubles copy-on-write as
// it fills, a probe walks from the key's home slot to the first empty one,
// keys are never removed so a probe sequence only ever gains entries) with
// differences that keep the two apart. kv's entry is an immutable pointer
// pair, one allocation per key, read on the pinned GET hot path; this one
// has words that change — journaled under the shard's mu, applied
// atomically — so entries are handed out of fixed-size chunks and never
// move, and the index holds 4-byte entry numbers, not pointers, and fills
// to three quarters, not half: 40 B of entry, a 16 B cloned name and 5–11 B
// of index per key, under 72 B at any key count. Inserts are serialized by
// the shard's mu, which every writer of the shard already holds; table has
// no lock of its own.
type table struct {
	seed maphash.Seed
	// slots holds entry numbers from 1; 0 is empty. Its length is a power
	// of two and it is at most three quarters full.
	slots atomic.Pointer[[]atomic.Uint32]
	// dir lists the chunks: entry number n is dir[(n-1)/chunkLen][(n-1)%chunkLen].
	// It is republished before the first entry of a new chunk gets a slot,
	// so a reader that met a number in a slot finds its chunk.
	dir atomic.Pointer[[]*[chunkLen]entry]
	n   int // entries; guarded by the shard's mu
}

// entry is one key of one shard.
type entry struct {
	key string // cloned once, at insert; never written again
	// journaled is the value last appended to the write-ahead log for key
	// (or recovered from disk), meaningful once inLog is set: what
	// compaction, the bootstrap snapshot, RangeShard, StateHash, reconcile
	// and MirrorGet read. Guarded by the shard's mu, like the append.
	journaled int64
	// applied is the value the replica read view shows for key, valid while
	// viewGen equals the view's generation (view.go). Written only by
	// Replica.publishThrough, at a commit mark.
	applied atomic.Int64
	viewGen atomic.Uint32
	inLog   bool // journaled holds a value; guarded by the shard's mu
	// asserted is Replica.reconcile's mark: the incoming snapshot named this
	// key. Set and cleared within one reconcile and touched by nothing else;
	// a DB is fed by one Replica at a time.
	asserted bool
}

// chunkLen entries are one allocation: 51 × 40 B, plus the 8 B header the
// runtime puts in front of a pointerful object of this size, is the 2048 B
// malloc size class exactly.
const chunkLen = 51

const minTableSlots = 16

func (t *table) init() {
	t.seed = maphash.MakeSeed()
	slots := make([]atomic.Uint32, minTableSlots)
	t.slots.Store(&slots)
	t.dir.Store(new([]*[chunkLen]entry))
}

// at returns entry number n.
func (t *table) at(n uint32) *entry {
	dir := *t.dir.Load()
	return &dir[(n-1)/chunkLen][(n-1)%chunkLen]
}

// lookup returns key's entry, or nil if key has none. Lock-free and
// allocation-free; safe beside an insert.
func (t *table) lookup(key string) *entry {
	slots := *t.slots.Load()
	mask := uint64(len(slots) - 1)
	for i := maphash.String(t.seed, key) & mask; ; i = (i + 1) & mask {
		n := slots[i].Load()
		if n == 0 {
			return nil
		}
		if e := t.at(n); e.key == key {
			return e
		}
	}
}

// insert adds an entry for key, which must be absent, and returns it. The
// key is cloned — callers pass keys that alias a frame or record buffer —
// and this is the only place the layer retains one. Called with the shard's
// mu held.
func (t *table) insert(key string) *entry {
	if t.n%chunkLen == 0 {
		// Appending within capacity writes past the length every published
		// header has; readers of those never look there.
		dir := append(*t.dir.Load(), new([chunkLen]entry))
		t.dir.Store(&dir)
	}
	t.n++
	e := t.at(uint32(t.n))
	e.key = strings.Clone(key)
	slots := *t.slots.Load()
	if 4*t.n <= 3*len(slots) {
		t.place(slots, uint32(t.n))
		return e
	}
	grown := make([]atomic.Uint32, 2*len(slots))
	for n := 1; n <= t.n; n++ {
		t.place(grown, uint32(n))
	}
	t.slots.Store(&grown)
	return e
}

// place stores entry number n in the first empty slot of its key's probe
// sequence.
func (t *table) place(slots []atomic.Uint32, n uint32) {
	mask := uint64(len(slots) - 1)
	i := maphash.String(t.seed, t.at(n).key) & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].Store(n)
}

// all yields every entry in insertion order. Called with the shard's mu held.
func (t *table) all() iter.Seq[*entry] {
	return func(yield func(*entry) bool) {
		for n := 1; n <= t.n; n++ {
			if !yield(t.at(uint32(n))) {
				return
			}
		}
	}
}
