package nvm

import (
	"math"
	"sync"
	"testing"
)

// The crash-step sweep: atomic-word cells must honor every CrashPlan step.
// For a fixed program of primitives we inject a crash before every step k
// and assert that (a) the crash fires as a Crashed panic at that primitive,
// (b) exactly the first k-1 primitives landed, and (c) the epoch advanced
// once.

// cellProgram is a deterministic sequence of primitives over three cells of
// different word engines: int (packed), string and a struct (boxed). It
// returns the number of primitives performed so the sweep knows its length.
func cellProgram(ctx *Ctx, ci *Cell[int], cs *Cell[string], ct *Cell[[2]int]) int {
	ci.Store(ctx, 1)                                   // step 1
	cs.Store(ctx, "a")                                 // step 2
	ct.Store(ctx, [2]int{1, 1})                        // step 3
	ci.CompareAndSwap(ctx, 1, 2)                       // step 4
	cs.CompareAndSwap(ctx, "a", "b")                   // step 5
	_ = ci.Load(ctx)                                   // step 6
	ct.CompareAndSwap(ctx, [2]int{1, 1}, [2]int{2, 2}) // step 7
	cs.Store(ctx, "c")                                 // step 8
	return 8
}

// cellStateAfter returns the expected cell contents after the first k
// primitives of cellProgram.
func cellStateAfter(k int) (int, string, [2]int) {
	i, s, t := 0, "", [2]int{}
	if k >= 1 {
		i = 1
	}
	if k >= 2 {
		s = "a"
	}
	if k >= 3 {
		t = [2]int{1, 1}
	}
	if k >= 4 {
		i = 2
	}
	if k >= 5 {
		s = "b"
	}
	if k >= 7 {
		t = [2]int{2, 2}
	}
	if k >= 8 {
		s = "c"
	}
	return i, s, t
}

func TestFastPathCellsHonorEveryCrashStep(t *testing.T) {
	// Total length first, from a crash-free run.
	total := func() int {
		sp := NewSpace()
		return cellProgram(sp.AcquireCtx(0, nil), NewCell(sp, 0), NewCell(sp, ""), NewCell(sp, [2]int{}))
	}()

	for step := 1; step <= total; step++ {
		sp := NewSpace()
		ci, cs, ct := NewCell(sp, 0), NewCell(sp, ""), NewCell(sp, [2]int{})
		ctx := sp.AcquireCtx(0, CrashAtStep(uint64(step)))
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(Crashed); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			cellProgram(ctx, ci, cs, ct)
			return false
		}()
		if !crashed {
			t.Fatalf("step %d: plan did not fire", step)
		}
		if got := sp.Epoch().Current(); got != 1 {
			t.Fatalf("step %d: epoch = %d, want 1", step, got)
		}
		wi, ws, wt := cellStateAfter(step - 1)
		if ci.Peek() != wi || cs.Peek() != ws || ct.Peek() != wt {
			t.Fatalf("step %d: state = (%d, %q, %v), want (%d, %q, %v)",
				step, ci.Peek(), cs.Peek(), ct.Peek(), wi, ws, wt)
		}
	}
}

// TestFastPathConcurrentMixedPlans runs plan-armed and plan-free operations
// on the same cells concurrently: both are the same atomic instruction on
// the same word, so no update may be lost.
func TestFastPathConcurrentMixedPlans(t *testing.T) {
	const (
		procs = 4
		incs  = 200
	)
	sp := NewSpace()
	c := NewCell(sp, 0)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				// Odd processes run "instrumented" with a never-firing plan,
				// even ones take the lock-free path.
				var plan CrashPlan
				if pid%2 == 1 {
					plan = CrashAtStep(math.MaxUint64)
				}
				ctx := sp.AcquireCtx(pid, plan)
				for {
					v := c.Load(ctx)
					if c.CompareAndSwap(ctx, v, v+1) {
						break
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if got := c.Peek(); got != procs*incs {
		t.Fatalf("counter = %d, want %d", got, procs*incs)
	}
}

// TestWordEngineSelection pins which types use the packed engine: integer
// and bool kinds pack; strings, floats and structs box.
func TestWordEngineSelection(t *testing.T) {
	if !packable[int]() || !packable[bool]() || !packable[uint8]() || !packable[int64]() {
		t.Fatal("integer/bool kinds must pack")
	}
	if packable[string]() || packable[float64]() || packable[[2]int]() || packable[struct{ A int }]() {
		t.Fatal("strings, floats and composites must not pack")
	}
}

// TestPackRoundTrip pins pack/unpack over sub-word types.
func TestPackRoundTrip(t *testing.T) {
	for _, v := range []int8{-128, -1, 0, 1, 127} {
		if unpack[int8](pack(v)) != v {
			t.Fatalf("int8 %d did not round-trip", v)
		}
	}
	for _, v := range []bool{true, false} {
		if unpack[bool](pack(v)) != v {
			t.Fatalf("bool %v did not round-trip", v)
		}
	}
	type small uint16
	for _, v := range []small{0, 1, 65535} {
		if unpack[small](pack(v)) != v {
			t.Fatalf("named uint16 %d did not round-trip", v)
		}
	}
	if pack(int64(-1)) != -1 {
		t.Fatalf("pack(int64 -1) = %d", pack(int64(-1)))
	}
}

// TestPtrWordValueCache pins that alternating stores reuse boxes instead
// of allocating (the announcement-structure pattern).
func TestPtrWordValueCache(t *testing.T) {
	sp := NewSpace()
	c := NewCell(sp, "idle")
	ctx := sp.AcquireCtx(0, nil)
	c.Store(ctx, "read")
	c.Store(ctx, "idle")
	allocs := testing.AllocsPerRun(100, func() {
		c.Store(ctx, "read")
		c.Store(ctx, "idle")
	})
	if allocs != 0 {
		t.Fatalf("alternating stores allocate %v/iteration, want 0", allocs)
	}
}

// TestCtxPoolReuse pins that pooled contexts reset correctly.
func TestCtxPoolReuse(t *testing.T) {
	sp := NewSpace()
	for i := 0; i < 100; i++ {
		ctx := sp.AcquireCtx(i%3, nil)
		if ctx.Steps() != 0 {
			t.Fatalf("recycled ctx has %d steps", ctx.Steps())
		}
		if ctx.pid != i%3 {
			t.Fatalf("recycled ctx pid = %d, want %d", ctx.pid, i%3)
		}
		NewCell(sp, 0).Store(ctx, i)
		sp.ReleaseCtx(ctx)
	}
	// A plan-armed context is never pooled; acquiring after releasing one
	// must still produce a clean context.
	armed := sp.AcquireCtx(7, CrashAtStep(99))
	sp.ReleaseCtx(armed)
	clean := sp.AcquireCtx(1, nil)
	defer sp.ReleaseCtx(clean)
	if clean.Steps() != 0 || clean.pid != 1 {
		t.Fatalf("ctx after armed release: pid=%d steps=%d", clean.pid, clean.Steps())
	}
}
