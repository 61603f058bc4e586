package kv

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"

	"detectable/internal/rw"
)

// cowTable resolves key → register on every operation: an insert-only
// open-addressed hash table whose slots are atomic pointers. The read path
// — every crash-free Get/Put on an existing key — is one atomic load of the
// slot array, one hash and a short probe, no locks and no allocation.
// Writers that introduce a *new* key (or Restore during recovery)
// serialize on a creation mutex and publish the entry with one atomic
// store; the array doubles, copy-on-write, when it is half full, so
// creating a key costs O(1) amortised. (The RWMutex-guarded map it replaced
// is measured against it in docs/PERFORMANCE.md §"Recorded verdicts".)
//
// Keys are never removed, so a probe sequence only ever gains entries: a reader walks from the key's home slot
// to the first empty one and either meets the key or proves it was absent
// when the walk began. An entry is immutable once published. Growth copies
// the entries into an array twice the size and swaps the array pointer;
// a reader still on the old array misses only keys created after it loaded
// the pointer, and a miss falls into create, which looks again under mu.
type cowTable struct {
	seed  maphash.Seed
	slots atomic.Pointer[[]atomic.Pointer[tableEntry]] // len is a power of two, at most half full
	mu    sync.Mutex                                   // serializes inserts (first writes, restores)
	n     int                                          // entries; guarded by mu
}

type tableEntry struct {
	key string
	reg *rw.Register[int]
}

const minTableSlots = 16

func newCowTable() *cowTable {
	t := &cowTable{seed: maphash.MakeSeed()}
	slots := make([]atomic.Pointer[tableEntry], minTableSlots)
	t.slots.Store(&slots)
	return t
}

// lookup returns key's register without creating it.
func (t *cowTable) lookup(key string) (*rw.Register[int], bool) {
	slots := *t.slots.Load()
	if e := slots[t.probe(slots, key)].Load(); e != nil {
		return e.reg, true
	}
	return nil, false
}

// probe returns the index of key's slot in slots: the one holding key, or
// the empty one where the walk from key's home slot ends.
func (t *cowTable) probe(slots []atomic.Pointer[tableEntry], key string) uint64 {
	mask := uint64(len(slots) - 1)
	i := maphash.String(t.seed, key) & mask
	for {
		if e := slots[i].Load(); e == nil || e.key == key {
			return i
		}
		i = (i + 1) & mask
	}
}

// create returns key's register, allocating it via alloc under the creation
// mutex if this is the key's first use, so exactly one register is ever
// allocated per key. The stored key is cloned (callers may pass a transient
// buffer; see Store.reg).
func (t *cowTable) create(key string, alloc func() *rw.Register[int]) *rw.Register[int] {
	t.mu.Lock()
	defer t.mu.Unlock()
	if reg, ok := t.lookup(key); ok {
		// Lost the creation race: another first-writer published this key
		// between our lookup miss and taking the mutex.
		return reg
	}
	reg := alloc()
	t.insert(&tableEntry{key: strings.Clone(key), reg: reg})
	return reg
}

// restore installs a recovered register and panics if key exists (recovery
// must run before the store serves operations).
func (t *cowTable) restore(key string, reg *rw.Register[int]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.lookup(key); ok {
		panic("kv: Restore of a key that already has a register")
	}
	t.insert(&tableEntry{key: strings.Clone(key), reg: reg})
}

// insert publishes e, whose key is absent, doubling the array first if e
// would leave it more than half full. Callers hold mu.
func (t *cowTable) insert(e *tableEntry) {
	slots := *t.slots.Load()
	if t.n++; 2*t.n > len(slots) {
		grown := make([]atomic.Pointer[tableEntry], 2*len(slots))
		for i := range slots {
			if old := slots[i].Load(); old != nil {
				grown[t.probe(grown, old.key)].Store(old)
			}
		}
		grown[t.probe(grown, e.key)].Store(e)
		t.slots.Store(&grown)
		return
	}
	slots[t.probe(slots, e.key)].Store(e)
}

// view returns a point-in-time key → register mapping the caller may read
// freely but must not mutate.
func (t *cowTable) view() map[string]*rw.Register[int] {
	slots := *t.slots.Load()
	out := make(map[string]*rw.Register[int], len(slots)/2)
	for i := range slots {
		if e := slots[i].Load(); e != nil {
			out[e.key] = e.reg
		}
	}
	return out
}
