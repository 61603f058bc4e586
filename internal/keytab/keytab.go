// Package keytab is the key table of the two layers that keep something per
// key — internal/kv (the key's number, which is its register's) and
// internal/durable (the key's journaled and replica-applied values): an
// insert-only hash table, Table[E], in which a key is one entry and an entry
// is no allocation.
//
//   - The index is open-addressed 4-byte entry numbers (0 is empty), a power
//     of two long, at most three quarters full, doubled into a fresh array.
//     Keys are never removed, so a probe sequence only ever gains entries: a
//     reader walks from the key's home slot to the first empty one and either
//     meets the key or proves it was absent when the walk began.
//   - Entry number n — its name's reference and the caller's E — is an
//     element of a chunk. Chunks hold 1, 2, 4 … entries (internal/rw hands
//     registers out the same way) up to what fits 2 KiB, then that many
//     each, so a table of one key is small and a table of many wastes less
//     than one chunk. Entries never move: a *E stays the key's for the life
//     of the table.
//   - A key's bytes are copied once, at insert, into a block of table-owned
//     storage and never move or change; an entry refers to them by block,
//     position and length. Blocks double from 8 bytes to 1 KiB, a name never
//     straddles two, and a name longer than a block gets one of its own.
//
// Lookup is lock-free and allocation-free and may run beside an insert.
// Inserts are serialized by the caller (kv's creation mutex, a durable
// shard's mu). An insert initializes the entry — name and E — before it
// stores the entry's number in a slot, and lists a new chunk or block in
// the directory before that, so a reader that meets a number finds
// everything behind it. The zero Table is empty and ready to use.
package keytab

import (
	"hash/maphash"
	"iter"
	"math"
	"math/bits"
	"reflect"
	"sync/atomic"
	"unsafe"
)

// seed is shared by every table of the process.
var seed = maphash.MakeSeed()

// Table maps keys to entries holding an E. The table stores the E given to
// Insert and hands out *E; it never touches one again, so how later writes
// to it are synchronized is the caller's business.
type Table[E any] struct {
	slots atomic.Pointer[[]atomic.Uint32]
	dir   atomic.Pointer[dir[E]]
	n     atomic.Uint32 // entries; stored last by Insert

	// Name storage cursor, touched by Insert only: the number of name blocks
	// and the bytes still free at the end of the last one.
	blocks, free int32
}

// dir lists the chunks and the name blocks, in two arrays filled in place:
// Insert writes the next element before it publishes the first entry that
// lives there, and a reader indexes only elements that an entry it met
// refers to. When an array is full the struct is republished with a doubled
// copy of it; an older dir stays good for every entry published before.
type dir[E any] struct {
	chunks [][]slot[E]
	names  [][]byte
	full   uint32 // chunkLen[E](), worked out once per table
}

// slot is one entry: where its name is and the caller's E.
type slot[E any] struct {
	off uint32 // name block << blockBits | position in the block
	len uint16
	e   E
}

const (
	minSlots     = 4
	minBlockBits = 3  // name blocks double from 8 bytes …
	blockBits    = 10 // … to 1 KiB
	maxBlock     = 1 << blockBits
	maxBlocks    = 1 << (32 - blockBits)
)

// chunkLen is how many entries a full chunk holds: as many as fit the 2 KiB
// size class — beside the 8-byte header the runtime puts in front of an
// object over 512 B only when the object holds pointers. kv's 8-byte slots
// and durable's 32-byte ones hold none: 256 and 64 to a chunk.
func chunkLen[E any]() uint32 {
	room := uintptr(2048)
	if pointerful(reflect.TypeFor[slot[E]]()) {
		room -= 8
	}
	return uint32(max(1, room/unsafe.Sizeof(slot[E]{})))
}

// pointerful reports whether a value of t holds a pointer the collector
// scans.
func pointerful(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && pointerful(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if pointerful(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// locate returns the chunk and the index in it of entry number n ≥ 1, and
// the chunk's length, in a table whose full chunks hold full entries:
// chunks 0 … small-1 hold 1, 2, 4 … entries, the largest power of two a
// full chunk has room for, and every later chunk is full.
func locate(n, full uint32) (c, i, size uint32) {
	small := uint32(bits.Len32(full))
	if n < 1<<small {
		c = uint32(bits.Len32(n)) - 1
		return c, n - 1<<c, 1 << c
	}
	n -= 1 << small
	if full&(full-1) == 0 {
		// full is a variable, so n/full would be a hardware divide on every
		// lookup; a pointer-free slot of 8, 16 or 32 bytes makes it a power
		// of two, and a shift.
		return small + n>>(small-1), n & (full - 1), full
	}
	return small + n/full, n % full, full
}

func (d *dir[E]) slot(n uint32) *slot[E] {
	c, i, _ := locate(n, d.full)
	return &d.chunks[c][i]
}

func (d *dir[E]) name(s *slot[E]) string {
	if s.len == 0 {
		return ""
	}
	pos := s.off & (maxBlock - 1)
	return view(d.names[s.off>>blockBits][pos : pos+uint32(s.len)])
}

// view returns name as a string without copying it. name is a published
// entry's run of a name block: Insert wrote those bytes before it published
// the entry and nothing writes them again, blocks are never reallocated or
// reused, and the string keeps its block reachable — so the string is as
// immutable as any other for as long as anyone holds it.
func view(name []byte) string {
	return unsafe.String(unsafe.SliceData(name), len(name))
}

// Lookup returns key's entry number and its E, or (0, nil) if key has no
// entry. Lock-free and allocation-free; safe beside an Insert.
func (t *Table[E]) Lookup(key string) (uint32, *E) {
	sp := t.slots.Load()
	if sp == nil {
		return 0, nil
	}
	slots := *sp
	mask := uint64(len(slots) - 1)
	for i := maphash.String(seed, key) & mask; ; i = (i + 1) & mask {
		n := slots[i].Load()
		if n == 0 {
			return 0, nil
		}
		// Loaded after the slot: the dir that was current when n was stored,
		// or a later one.
		d := t.dir.Load()
		if s := d.slot(n); int(s.len) == len(key) && d.name(s) == key {
			return n, &s.e
		}
	}
}

// At returns the E of entry number n, 1 ≤ n ≤ Len().
func (t *Table[E]) At(n uint32) *E { return &t.dir.Load().slot(n).e }

// Name returns the key of entry number n. The string aliases the table's
// name storage (see view); it costs nothing and is valid forever.
func (t *Table[E]) Name(n uint32) string {
	d := t.dir.Load()
	return d.name(d.slot(n))
}

// Len returns the number of entries. Entries are numbered 1 … Len() in
// insertion order; a number read here is published, so Len is safe beside
// an Insert too.
func (t *Table[E]) Len() int { return int(t.n.Load()) }

// All yields every entry present when the walk began, in insertion order.
func (t *Table[E]) All() iter.Seq2[uint32, *E] {
	return func(yield func(uint32, *E) bool) {
		for n, last := uint32(1), t.n.Load(); n <= last; n++ {
			if !yield(n, t.At(n)) {
				return
			}
		}
	}
}

// Insert adds an entry for key, which must be absent, holding e, and
// returns its number and its E. key may alias a buffer the caller reuses:
// its bytes are copied, and this is the only place a layer built on the
// table retains a key. Inserts must not run concurrently.
func (t *Table[E]) Insert(key string, e E) (uint32, *E) {
	if len(key) > math.MaxUint16 {
		panic("keytab: key longer than 65535 bytes")
	}
	n := t.n.Load() + 1
	if n == 0 {
		panic("keytab: table full")
	}
	d := t.room(n, int32(len(key)))
	s := d.slot(n)
	s.off, s.len, s.e = t.store(d, key), uint16(len(key)), e

	var slots []atomic.Uint32
	if sp := t.slots.Load(); sp != nil {
		slots = *sp
	}
	if 4*int(n) > 3*len(slots) {
		grown := make([]atomic.Uint32, max(minSlots, 2*len(slots)))
		for m := uint32(1); m < n; m++ {
			place(grown, d, m)
		}
		t.slots.Store(&grown)
		slots = grown
	}
	place(slots, d, n)
	t.n.Store(n)
	return n, &s.e
}

// room returns a directory in which entry number n has a chunk element and
// the last name block has size bytes free, adding a chunk or a block if it
// has to.
func (t *Table[E]) room(n uint32, size int32) *dir[E] {
	d := t.dir.Load()
	if d == nil {
		d = &dir[E]{full: chunkLen[E]()} // entry 1's, published below with its chunk
	}
	c, i, chunk := locate(n, d.full)
	newChunk, newBlock := i == 0, size > t.free
	if newChunk && int(c) == len(d.chunks) || newBlock && int(t.blocks) == len(d.names) {
		if n > 1 {
			next := *d
			d = &next
		}
		if newChunk && int(c) == len(d.chunks) {
			d.chunks = doubled(d.chunks)
		}
		if newBlock && int(t.blocks) == len(d.names) {
			d.names = doubled(d.names)
		}
		t.dir.Store(d)
	}
	if newChunk {
		d.chunks[c] = make([]slot[E], chunk)
	}
	if newBlock {
		if t.blocks == maxBlocks {
			panic("keytab: name storage full")
		}
		// The rest of the last block is left unused. A name that fits no
		// doubling block gets a block exactly its size.
		t.free = max(1<<min(minBlockBits+t.blocks, blockBits), size)
		d.names[t.blocks] = make([]byte, t.free)
		t.blocks++
	}
	return d
}

// doubled returns a copy of a with twice the length, at least 1.
func doubled[T any](a []T) []T {
	b := make([]T, max(1, 2*len(a)))
	copy(b, a)
	return b
}

// store copies key to the free end of d's last name block, which room made
// large enough, and returns its reference.
func (t *Table[E]) store(d *dir[E], key string) uint32 {
	if len(key) == 0 {
		return 0
	}
	b := d.names[t.blocks-1]
	pos := len(b) - int(t.free)
	copy(b[pos:], key)
	t.free -= int32(len(key))
	return uint32(t.blocks-1)<<blockBits | uint32(pos)
}

// place stores entry number n in the first empty slot of its key's probe
// sequence.
func place[E any](slots []atomic.Uint32, d *dir[E], n uint32) {
	mask := uint64(len(slots) - 1)
	i := maphash.String(seed, d.name(d.slot(n))) & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].Store(n)
}
