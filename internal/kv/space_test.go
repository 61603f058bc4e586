package kv

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"detectable/internal/history"
	"detectable/internal/runtime"
	"detectable/internal/space"
)

// bytesPerRegister measures the heap a store of n processes holds per key:
// HeapInuse growth over `keys` first writes (register, bit array, R and its
// boxes, table entry, cloned key), after a collection on each side.
func bytesPerRegister(n, keys int) float64 {
	sys := runtime.NewSystem(n)
	sys.SetHistory(history.NewOff())
	s := New(sys)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("bench-%d", i)
	}
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	for i, k := range names {
		s.Put(0, k, i+1)
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	goruntime.KeepAlive(s)
	return float64(int64(after.HeapInuse)-int64(before.HeapInuse)) / float64(keys)
}

// TestSpacePinBytesPerRegister: at kvserverd's N = 8 a key costs at most
// 1 KiB of heap (it was 15 KB when every toggle bit was a cell of its own
// and every register carried N copies of the per-process state).
func TestSpacePinBytesPerRegister(t *testing.T) {
	got := bytesPerRegister(8, 4096)
	t.Logf("N=8: %.0f B/register", got)
	if got > 1024 {
		t.Fatalf("a register at N=8 holds %.0f B of heap, want ≤ 1024", got)
	}
}

// TestSpaceShapeBitsNotCells prints measured bytes per register beside the
// paper's accounting (space.RW: 2N² toggle bits + R's tag; the per-process
// terms are per store now, not per register). The shared part grows as
// O(N²) bits: from N = 2 to N = 16 the bit array grows by 65 bytes and a
// register by no more than twice that.
func TestSpaceShapeBitsNotCells(t *testing.T) {
	measured := map[int]float64{}
	for _, n := range []int{2, 4, 8, 16} {
		measured[n] = bytesPerRegister(n, 4096)
		p := space.RW(n, 64)
		t.Logf("N=%2d: measured %4.0f B/register; accounting: shared %4d bits = %3d B per register, %3d bits = %2d B per process (whole system %4d B)",
			n, measured[n], p.SharedBits, (p.SharedBits+7)/8,
			p.PrivateBitsPerProc+p.AuxBitsPerProc, (p.PrivateBitsPerProc+p.AuxBitsPerProc+7)/8, (p.Total(n)+7)/8)
	}
	if grow := measured[16] - measured[2]; grow > 2*65+16 {
		t.Fatalf("a register grows by %.0f B from N=2 to N=16; the bit array grows by 65", grow)
	}
}
