package keytab

// One suite for every shape of entry. Two have the shapes of the real ones —
// internal/kv's is empty (entry n is register n−1, so the slot is the name
// reference alone: 8 bytes, noscan), internal/durable's is five pointer-free
// words and flags, two of them atomics (24 bytes; a 32-byte noscan slot) —
// and a third, a handle of a pointer and an index, keeps a 24-byte slot the
// collector scans under test.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

type handle struct {
	c *int
	i int
}

type empty = struct{}

type words struct {
	journaled int64
	applied   atomic.Int64
	viewGen   atomic.Uint32
	inLog     bool
}

// shape is what a case needs to know about an entry type: how to make the
// value inserted i-th and how to read i back out of entry number n. An
// empty entry holds nothing, so its i is its number's, as in internal/kv.
type shape[E any] struct {
	make func(i int) E
	read func(n uint32, e *E) int
}

var (
	handles = shape[handle]{
		make: func(i int) handle { return handle{c: new(int), i: i} },
		read: func(_ uint32, e *handle) int { return e.i },
	}
	wordses = shape[words]{
		make: func(i int) words { return words{journaled: int64(i), inLog: true} },
		read: func(_ uint32, e *words) int { return int(e.journaled) },
	}
	empties = shape[empty]{
		make: func(int) empty { return empty{} },
		read: func(n uint32, _ *empty) int { return int(n) - 1 },
	}
)

// each runs a generic case once per entry type.
func each(t *testing.T, h func(*testing.T, shape[handle]), w func(*testing.T, shape[words]), e func(*testing.T, shape[empty])) {
	t.Run("handle", func(t *testing.T) { h(t, handles) })
	t.Run("words", func(t *testing.T) { w(t, wordses) })
	t.Run("empty", func(t *testing.T) { e(t, empties) })
}

func tableKeys(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%d", i)
	}
	return names
}

// TestSlotSizes: a full chunk of any shape is the 2 KiB size class — 256
// of kv's 8-byte slots and 64 of durable's 32-byte ones, both pointer-free,
// exactly; 85 pointerful 24-byte slots beside the runtime's 8-byte header.
func TestSlotSizes(t *testing.T) {
	if size, n := unsafe.Sizeof(slot[empty]{}), chunkLen[empty](); size != 8 || n != 256 {
		t.Errorf("a slot holding nothing is %d B, %d to a chunk; want 8 and 256", size, n)
	}
	if size, n := unsafe.Sizeof(slot[words]{}), chunkLen[words](); size != 32 || n != 64 {
		t.Errorf("a slot holding durable's words is %d B, %d to a chunk; want 32 and 64", size, n)
	}
	if size, n := unsafe.Sizeof(slot[handle]{}), chunkLen[handle](); size != 24 || n != 85 {
		t.Errorf("a slot holding a 16-byte handle is %d B, %d to a chunk; want 24 and 85", size, n)
	}
}

// TestLocate: entry numbers map onto chunks of 1, 2, 4 … up to the largest
// power of two a full chunk has room for, then full chunks, every element
// exactly once and in order.
func TestLocate(t *testing.T) {
	each(t, testLocate[handle], testLocate[words], testLocate[empty])
}

func testLocate[E any](t *testing.T, _ shape[E]) {
	n, size := uint32(1), uint32(1)
	for c := uint32(0); c < 70; c++ {
		for i := uint32(0); i < size; i++ {
			if gc, gi, gsize := locate(n, chunkLen[E]()); gc != c || gi != i || gsize != size {
				t.Fatalf("locate(%d) = chunk %d element %d of %d, want %d, %d of %d", n, gc, gi, gsize, c, i, size)
			}
			n++
		}
		if size = 2 * size; size > chunkLen[E]() {
			size = chunkLen[E]()
		}
	}
}

// TestTableAgainstMap inserts through every doubling of the index and a few
// chunk boundaries and checks that each key resolves to one entry that never
// moves, that absent keys miss, and that the walk yields insertion order.
func TestTableAgainstMap(t *testing.T) {
	each(t, testAgainstMap[handle], testAgainstMap[words], testAgainstMap[empty])
}

func testAgainstMap[E any](t *testing.T, sh shape[E]) {
	var tab Table[E]
	if n, e := tab.Lookup("anything"); n != 0 || e != nil || tab.Len() != 0 {
		t.Fatal("the zero table is not empty")
	}
	names := tableKeys(5 * minSlots * 64 / 7) // not a power of two, not a chunk multiple
	type where struct {
		n uint32
		e *E
	}
	want := make(map[string]where)
	for i, k := range names {
		if n, e := tab.Lookup(k); n != 0 || e != nil {
			t.Fatalf("%q found before its insert", k)
		}
		scratch := []byte(k) // the table must copy, not keep, its argument
		n, e := tab.Insert(string(scratch), sh.make(i))
		scratch[0] = 'X'
		if n != uint32(i+1) || tab.Len() != i+1 {
			t.Fatalf("insert %d got number %d, Len %d", i+1, n, tab.Len())
		}
		want[k] = where{n, e}
		if i%97 == 0 {
			for k, w := range want {
				if n, e := tab.Lookup(k); n != w.n || e != w.e || tab.At(n) != e || tab.Name(n) != k {
					t.Fatalf("after %d inserts %q resolves to %d %p (At %p, Name %q), want %d %p", i+1, k, n, e, tab.At(n), tab.Name(n), w.n, w.e)
				}
			}
		}
	}
	if n, _ := tab.Lookup("absent"); n != 0 {
		t.Fatal("an absent key resolved to an entry")
	}
	if n, _ := tab.Lookup(""); n != 0 {
		t.Fatal("the empty key, never inserted, resolved to an entry")
	}
	i := 0
	for n, e := range tab.All() {
		if n != uint32(i+1) || tab.Name(n) != names[i] || sh.read(n, e) != i {
			t.Fatalf("walk position %d yields entry %d %q=%d, want %q=%d", i, n, tab.Name(n), sh.read(n, e), names[i], i)
		}
		i++
	}
	if i != len(names) {
		t.Fatalf("walk yielded %d entries, want %d", i, len(names))
	}
	if slots := len(*tab.slots.Load()); 3*slots < 4*len(names) || 3*slots >= 8*len(names) {
		t.Fatalf("%d slots for %d entries, want at most three quarters full and more than three eighths", slots, len(names))
	}
}

// TestTableLookupBesideInsert: readers resolve keys lock-free while the
// owner inserts — 4096 keys, eleven index doublings, 24 to 70 chunks by
// shape, some twenty name blocks; a key seen once is seen for good, with the
// same entry. Run under -race it also checks the publication order of
// directory, entry, name bytes and slot.
func TestTableLookupBesideInsert(t *testing.T) {
	each(t, testLookupBesideInsert[handle], testLookupBesideInsert[words], testLookupBesideInsert[empty])
}

func testLookupBesideInsert[E any](t *testing.T, sh shape[E]) {
	var tab Table[E]
	names := tableKeys(4096)
	var inserted atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make([]*E, len(names))
			for done := false; !done; {
				done = inserted.Load() == int64(len(names))
				for i, k := range names {
					n, e := tab.Lookup(k)
					switch {
					case e == nil && seen[i] != nil:
						t.Errorf("%q lost", k)
						return
					case e == nil && int64(i) < inserted.Load():
						if _, again := tab.Lookup(k); again == nil {
							t.Errorf("%q missing after its insert returned", k)
							return
						}
					case e != nil && seen[i] != nil && e != seen[i]:
						t.Errorf("%q moved", k)
						return
					case e != nil && (tab.Name(n) != k || sh.read(n, e) != i || n != uint32(i+1)):
						t.Errorf("%q resolved to entry %d %q=%d", k, n, tab.Name(n), sh.read(n, e))
						return
					}
					seen[i] = e
				}
				if n := tab.Len(); n > 0 && tab.Name(uint32(n)) != names[n-1] {
					t.Errorf("Len() = %d names an entry that is not published", n)
					return
				}
			}
		}()
	}
	for i, k := range names {
		tab.Insert(k, sh.make(i))
		inserted.Add(1)
	}
	wg.Wait()
}

// TestLookupRacesIndexDoublings aims the race detector at the smallest
// tables: readers hammer the first key while the index is born and doubles
// four times (4 → 8 → 16 → 32 → 64 slots) and the first six chunks and
// seven name blocks appear, over and over.
func TestLookupRacesIndexDoublings(t *testing.T) {
	each(t, testRacesDoublings[handle], testRacesDoublings[words], testRacesDoublings[empty])
}

func testRacesDoublings[E any](t *testing.T, sh shape[E]) {
	names := tableKeys(3 * 64 / 4) // the insert after this one would double once more
	for round := 0; round < 200 && !t.Failed(); round++ {
		tab := new(Table[E])
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				found := false
				for !stop.Load() {
					n, e := tab.Lookup(names[0])
					if e == nil && found {
						t.Errorf("round %d: %q lost across a doubling", round, names[0])
						return
					}
					if e != nil && (n != 1 || sh.read(n, e) != 0) {
						t.Errorf("round %d: %q resolved to entry %d = %d", round, names[0], n, sh.read(n, e))
						return
					}
					found = e != nil
				}
			}()
		}
		for i, k := range names {
			tab.Insert(k, sh.make(i))
		}
		if slots := len(*tab.slots.Load()); slots != 64 {
			t.Fatalf("%d slots after %d inserts, want 64: four doublings", slots, len(names))
		}
		stop.Store(true)
		wg.Wait()
	}
}

// TestAllIsPointInTime: a walk yields the entries present when it began and
// none inserted while it runs (internal/kv's Keys relies on it, without the
// creation mutex).
func TestAllIsPointInTime(t *testing.T) {
	each(t, testAllPointInTime[handle], testAllPointInTime[words], testAllPointInTime[empty])
}

func testAllPointInTime[E any](t *testing.T, sh shape[E]) {
	var tab Table[E]
	tab.Insert("a", sh.make(0))
	tab.Insert("b", sh.make(1))
	var got []string
	for n := range tab.All() {
		got = append(got, tab.Name(n))
		tab.Insert(fmt.Sprintf("later-%d", n), sh.make(int(n)+1))
	}
	if strings.Join(got, ",") != "a,b" {
		t.Fatalf("walk yielded %v, want [a b]", got)
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tab.Len())
	}
}

// TestNames covers what storing the key's bytes inline adds: the empty key,
// the longest key and one byte more, keys that differ only in their last
// byte or only in length, and names around a block boundary.
func TestNames(t *testing.T) {
	each(t, testNames[handle], testNames[words], testNames[empty])
}

func testNames[E any](t *testing.T, sh shape[E]) {
	var tab Table[E]
	var names []string
	insert := func(k string) {
		t.Helper()
		if n, _ := tab.Lookup(k); n != 0 {
			t.Fatalf("key of %d bytes found before its insert (entry %d)", len(k), n)
		}
		tab.Insert(k, sh.make(len(names)))
		names = append(names, k)
	}
	insert("") // needs no storage at all
	if tab.blocks != 0 {
		t.Fatal("the empty key took a name block")
	}
	longest := strings.Repeat("L", math.MaxUint16)
	insert(longest) // a block of its own
	insert(longest[:math.MaxUint16-1] + "M")
	insert(longest[:math.MaxUint16-1])
	insert("k")
	insert("k\x00")
	insert("ka")
	insert("kb")
	// Fill doubling blocks with 100-byte names: none of 128 … 1024 is a
	// multiple of 100, so every block ends in a remainder the next name
	// must not be split across.
	for i := 0; i < 200; i++ {
		insert(fmt.Sprintf("%0100d", i))
	}
	// A name exactly as long as a full block, one that leaves a single byte,
	// and the one-byte name that takes it.
	insert(strings.Repeat("B", maxBlock))
	insert(strings.Repeat("C", maxBlock-1))
	before := tab.blocks
	insert("z")
	if tab.blocks != before {
		t.Fatalf("a one-byte name took a new block (%d → %d) with one byte free", before, tab.blocks)
	}
	insert(strings.Repeat("D", maxBlock+1)) // one byte too long for any doubling block

	for i, k := range names {
		n, e := tab.Lookup(k)
		if n != uint32(i+1) || e == nil || sh.read(n, e) != i || tab.Name(n) != k {
			t.Fatalf("key %d (%d bytes) resolves to entry %d", i, len(k), n)
		}
	}
	d := tab.dir.Load()
	for n := uint32(1); n <= uint32(tab.Len()); n++ {
		s := d.slot(n)
		if s.len == 0 {
			continue
		}
		block, pos := d.names[s.off>>blockBits], int(s.off&(maxBlock-1))
		if pos+int(s.len) > len(block) {
			t.Fatalf("entry %d: name at %d+%d straddles the end of its %d-byte block", n, pos, s.len, len(block))
		}
		if len(block) > maxBlock && (pos != 0 || int(s.len) != len(block)) {
			t.Fatalf("entry %d shares an oversize block of %d bytes", n, len(block))
		}
	}
	for _, absent := range []string{"k\x00\x00", longest[:100], "kc", strings.Repeat("B", maxBlock-2)} {
		if n, _ := tab.Lookup(absent); n != 0 {
			t.Fatalf("absent key of %d bytes resolved to entry %d", len(absent), n)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a 65536-byte key was accepted")
		}
	}()
	tab.Insert(longest+"L", sh.make(0))
}

// TestOneKeyAndManyKeys: the two ends of the size range. A table of one key
// is a handful of small objects — under 200 bytes in all — and one of
// 100 000 keys resolves every one of them.
func TestOneKeyAndManyKeys(t *testing.T) {
	each(t, testOneAndMany[handle], testOneAndMany[words], testOneAndMany[empty])
}

func testOneAndMany[E any](t *testing.T, sh shape[E]) {
	var one Table[E]
	one.Insert("only", sh.make(0))
	d := one.dir.Load()
	if len(*one.slots.Load()) != minSlots || len(d.chunks) != 1 || len(d.chunks[0]) != 1 || len(d.names) != 1 || len(d.names[0]) != 1<<minBlockBits {
		t.Fatalf("a one-key table holds %d slots, %d chunks (first of %d), %d name blocks (first of %d B)",
			len(*one.slots.Load()), len(d.chunks), len(d.chunks[0]), len(d.names), len(d.names[0]))
	}
	if n, e := one.Lookup("only"); n != 1 || sh.read(n, e) != 0 {
		t.Fatal("the only key does not resolve")
	}

	if testing.Short() {
		return
	}
	const many = 100_000
	var tab Table[E]
	names := tableKeys(many)
	for i, k := range names {
		tab.Insert(k, sh.make(i))
	}
	for i, k := range names {
		if n, e := tab.Lookup(k); n != uint32(i+1) || sh.read(n, e) != i {
			t.Fatalf("%q resolves to entry %d", k, n)
		}
	}
	d = tab.dir.Load()
	last, _, _ := locate(many, chunkLen[E]())
	chunks := int(last) + 1
	if d.chunks[chunks-1] == nil || len(d.chunks) > chunks && d.chunks[chunks] != nil || len(d.chunks) >= 2*chunks {
		t.Fatalf("%d entries do not fill %d chunks of a directory of %d", many, chunks, len(d.chunks))
	}
	stored := 0
	for _, b := range d.names[:tab.blocks] {
		stored += len(b)
	}
	if total := len(strings.Join(names, "")); stored > total+2*maxBlock {
		t.Fatalf("%d bytes of name blocks for %d bytes of names", stored, total)
	}
}

// TestAllocPinLookup: resolving a key — present or absent — allocates
// nothing, and neither do At and Name.
func TestAllocPinLookup(t *testing.T) {
	each(t, testAllocPinLookup[handle], testAllocPinLookup[words], testAllocPinLookup[empty])
}

func testAllocPinLookup[E any](t *testing.T, sh shape[E]) {
	var tab Table[E]
	for i, k := range tableKeys(1000) {
		tab.Insert(k, sh.make(i))
	}
	sink := 0
	if allocs := testing.AllocsPerRun(500, func() {
		n, e := tab.Lookup("bench-777")
		_, miss := tab.Lookup("bench-1000")
		if e == nil || miss != nil {
			t.Fatal("wrong resolution")
		}
		sink += sh.read(n, tab.At(n)) + len(tab.Name(n))
	}); allocs != 0 {
		t.Fatalf("lookup allocates %v/op, want 0", allocs)
	}
}

// TestAllocPinInsert: an insert allocates only when something grows — a
// chunk, a name block, the index, a directory array: under 0.1 objects per
// key over 4096 keys, none of them the key's own.
func TestAllocPinInsert(t *testing.T) {
	each(t, testAllocPinInsert[handle], testAllocPinInsert[words], testAllocPinInsert[empty])
}

func testAllocPinInsert[E any](t *testing.T, sh shape[E]) {
	names := tableKeys(4096)
	e := sh.make(0)
	if allocs := testing.AllocsPerRun(5, func() {
		var tab Table[E]
		for _, k := range names {
			tab.Insert(k, e)
		}
	}); allocs > 0.1*float64(len(names)) {
		t.Fatalf("%d inserts allocate %.0f objects, want < %d", len(names), allocs, len(names)/10)
	}
}

// FuzzTableAgainstMap drives a table and a map[string] with one stream of
// operations decoded from the input — insert a key if absent, look one up,
// walk the table — and requires them to agree after every step. Keys are
// cut from the input itself, with lengths from 0 to a few hundred bytes and
// many shared prefixes.
func FuzzTableAgainstMap(f *testing.F) {
	f.Add([]byte("\x00\x03abc\x01\x03abc\x02"))
	f.Add([]byte("\x00\x00\x00\x00\x01\x00\x02"))
	f.Add([]byte(strings.Repeat("\x00\x05hello\x00\x04hell\x01\x06hello!\x02", 20)))
	f.Add([]byte("\x00\xffa\x00\xfeb\x02"))
	long := append([]byte{0, 250}, []byte(strings.Repeat("x", 250))...)
	f.Add(append(append(long, long...), 2))
	f.Fuzz(func(t *testing.T, in []byte) {
		fuzzAgainstMap(t, in, handles)
		fuzzAgainstMap(t, in, wordses)
		fuzzAgainstMap(t, in, empties)
	})
}

func fuzzAgainstMap[E any](t *testing.T, in []byte, sh shape[E]) {
	var tab Table[E]
	ref := make(map[string]int) // key → insertion position
	var order []string
	for len(in) > 0 {
		op := in[0] % 3
		in = in[1:]
		if op == 2 {
			i := 0
			for n, e := range tab.All() {
				if tab.Name(n) != order[i] || sh.read(n, e) != i {
					t.Fatalf("walk position %d yields %q=%d, want %q", i, tab.Name(n), sh.read(n, e), order[i])
				}
				i++
			}
			if i != len(order) || tab.Len() != len(order) {
				t.Fatalf("walk yielded %d of %d entries, Len %d", i, len(order), tab.Len())
			}
			continue
		}
		if len(in) == 0 {
			return
		}
		// The key is the next 3·b bytes of input (b its first byte), so long
		// keys, and prefixes of earlier keys, are cheap for the fuzzer to make.
		size := min(3*int(in[0]), len(in)-1)
		key := string(in[1 : 1+size])
		in = in[1+size:]
		n, e := tab.Lookup(key)
		pos, present := ref[key]
		if present != (e != nil) || present && (n != uint32(pos+1) || sh.read(n, e) != pos || tab.Name(n) != key) {
			t.Fatalf("lookup of %q: entry %d, map says present=%v at %d", key, n, present, pos)
		}
		if op == 0 && !present {
			ref[key] = len(order)
			tab.Insert(key, sh.make(len(order)))
			order = append(order, key)
		}
	}
}
