package kv

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"detectable/internal/history"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/space"
)

// liveGrowth reports what build leaves on the heap: live bytes (HeapAlloc)
// and live objects (Mallocs − Frees), each read after a full collection.
// Unlike HeapInuse, which moves a span (8 KiB) at a time, both count what
// was allocated and nothing else.
func liveGrowth(build func() any) (bytes, objects int64) {
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.GC() // twice: what a sync.Pool drops survives one collection as its victim cache
	goruntime.ReadMemStats(&before)
	keep := build()
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	goruntime.KeepAlive(keep)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc),
		int64(after.Mallocs-after.Frees) - int64(before.Mallocs-before.Frees)
}

func benchKeys(keys int) []string {
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%d", i)
	}
	return names
}

// perKey measures the heap a store of n processes holds per key, in bytes
// and in objects, once fill has installed every name: the key's share of
// its register chunk and of the key table — entry chunk, name block, index.
func perKey(n, keys int, fill func(s *Store, i int, key string)) (bytes, objects float64) {
	sys := runtime.NewSystem(n)
	sys.SetHistory(history.NewOff())
	s := New(sys)
	names := benchKeys(keys)
	b, o := liveGrowth(func() any {
		for i, k := range names {
			fill(s, i, k)
		}
		return s
	})
	// The names outlive the second reading: freed in between, they would be
	// subtracted from it — 32 B and one object per key.
	goruntime.KeepAlive(names)
	return float64(b) / float64(keys), float64(o) / float64(keys)
}

func firstPut(s *Store, i int, key string) { s.Put(0, key, i+1) }

// TestSpacePinBytesPerRegister: at kvserverd's N = 8 a key costs at most
// 64 B and 0.2 objects of live heap, its table entry, its name and its
// index slot included (it reads 56 B and 0.09; 80 B when the entry held the
// register's 16-byte handle and R's word its 8-byte cell ID; 116 B and 1.11
// when R was a 32-byte cell pointing to a 16-byte box of its triple; 177 B
// and 3.07 when the entry and the name were objects of their own beside a
// 40-byte Register struct; 256 B and 9.0 when a register was seven
// allocations; 15 KB when every toggle bit was a cell of its own). A key
// owns no object: what it counts is its share of the chunks.
// docs/PERFORMANCE.md §"Space: what a key owns" has the sites.
func TestSpacePinBytesPerRegister(t *testing.T) {
	bytes, objects := perKey(8, 4096, firstPut)
	t.Logf("N=8: %.0f B and %.2f objects per key", bytes, objects)
	if bytes > 64 {
		t.Fatalf("a key at N=8 holds %.0f B of live heap, want ≤ 64", bytes)
	}
	if objects > 0.2 {
		t.Fatalf("a key at N=8 holds %.2f live objects, want ≤ 0.2", objects)
	}
}

// TestSpaceShapeBitsNotCells prints measured bytes per key beside the
// paper's accounting (space.RW: 2N² toggle bits + R's tag; the per-process
// terms are per store now, not per register). The shared part grows as
// O(N²) bits and as nothing else: from N = 2 to N = 16 a register's bits
// grow from 10 to 528, 65 bytes — 76 as allocated, because the N = 16
// chunk's 4224 B array lands in Go's 4864 B size class — and a key by no
// more than that plus a word.
func TestSpaceShapeBitsNotCells(t *testing.T) {
	measured := map[int]float64{}
	for _, n := range []int{2, 4, 8, 16} {
		measured[n], _ = perKey(n, 4096, firstPut)
		p := space.RW(n, 64)
		t.Logf("N=%2d: measured %4.0f B/key; accounting: shared %4d bits = %3d B per register, %3d bits = %2d B per process (whole system %4d B)",
			n, measured[n], p.SharedBits, (p.SharedBits+7)/8,
			p.PrivateBitsPerProc+p.AuxBitsPerProc, (p.PrivateBitsPerProc+p.AuxBitsPerProc+7)/8, (p.SharedBits+n*(p.PrivateBitsPerProc+p.AuxBitsPerProc)+7)/8)
	}
	if grow := measured[16] - measured[2]; grow > 76+8 {
		t.Fatalf("a key grows by %.0f B from N=2 to N=16; the bit array grows by 76", grow)
	}
}

// leastOf5 is the least live growth of five builds: a runtime allocation
// that lands between the two readings (a timer, a thread) can only add.
func leastOf5(n int, build func(sys *runtime.System) any) int64 {
	bytes := int64(1 << 62)
	for try := 0; try < 5; try++ {
		sys := runtime.NewSystem(n)
		sys.SetHistory(history.NewOff())
		b, _ := liveGrowth(func() any { return build(sys) })
		bytes = min(bytes, b)
	}
	return bytes
}

// TestSpacePinStandaloneRegister: chunks start at one element, so a system
// holding a single rw.NewInt register — explore, model, the ladder's rw
// rung — pays nothing for the slab. Process table and the holder's 16-byte
// handle included, it is 6392 B at N = 8 and 1776 B at N = 2 (6904 and 1904
// when R was a 32-byte cell over a boxed triple and RD_p held the triple
// unpacked).
func TestSpacePinStandaloneRegister(t *testing.T) {
	if raceEnabled {
		t.Skip("exact byte counts; race instrumentation adds a few objects")
	}
	for n, want := range map[int]int64{2: 1792, 8: 6408} {
		bytes := leastOf5(n, func(sys *runtime.System) any { return rw.NewInt(sys, 0) })
		t.Logf("N=%d: %d B", n, bytes)
		if bytes > want {
			t.Errorf("one register and its process table at N=%d hold %d B, want ≤ %d", n, bytes, want)
		}
	}
}

// TestSpacePinSmallStore: the key table starts as small as the chunks do —
// a 4-slot index, a one-entry chunk, an 8-byte name block — so a store
// holding one key, which is what the explorer and the sweeps build by the
// thousand, costs less than it did with a 16-slot table, an entry object
// and a cloned name: 7184 B at N = 8 and 2168 B at N = 2 then, process table
// and all, 6616 and 1984 now that R is one packed word. The key is
// restored, not put: a first operation also fills sync.Pools whose size
// follows GOMAXPROCS.
func TestSpacePinSmallStore(t *testing.T) {
	if raceEnabled {
		t.Skip("exact byte counts; race instrumentation adds a few objects")
	}
	for n, want := range map[int]int64{2: 2000, 8: 6632} {
		bytes := leastOf5(n, func(sys *runtime.System) any {
			s := New(sys)
			s.Restore("bench-0", 1)
			return s
		})
		t.Logf("N=%d: %d B", n, bytes)
		if bytes > want {
			t.Errorf("a store of one key at N=%d holds %d B, want ≤ %d", n, bytes, want)
		}
	}
}
