package nvm

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCellLoadStore(t *testing.T) {
	sp := NewSpace()
	c := NewCell(sp, 7)
	ctx := sp.AcquireCtx(0, nil)
	if got := c.Load(ctx); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	c.Store(ctx, 42)
	if got := c.Load(ctx); got != 42 {
		t.Fatalf("Load after Store = %d, want 42", got)
	}
}

func TestCellCAS(t *testing.T) {
	sp := NewSpace()
	c := NewCell(sp, "a")
	ctx := sp.AcquireCtx(0, nil)
	if !c.CompareAndSwap(ctx, "a", "b") {
		t.Fatal("CAS(a,b) on value a failed")
	}
	if c.CompareAndSwap(ctx, "a", "c") {
		t.Fatal("CAS(a,c) on value b succeeded")
	}
	if got := c.Load(ctx); got != "b" {
		t.Fatalf("Load = %q, want %q", got, "b")
	}
}

func TestCellSurvivesCrash(t *testing.T) {
	sp := NewSpace()
	c := NewCell(sp, 10)
	ctx := sp.AcquireCtx(0, nil)
	c.Store(ctx, 20)
	sp.Crash()
	if got := c.Peek(); got != 20 {
		t.Fatalf("after crash Peek = %d, want 20 (private-cache stores persist)", got)
	}
}

func TestCellStructValues(t *testing.T) {
	type triple struct {
		Val, Q, Toggle int
	}
	sp := NewSpace()
	c := NewCell(sp, triple{1, 0, 0})
	ctx := sp.AcquireCtx(0, nil)
	if !c.CompareAndSwap(ctx, triple{1, 0, 0}, triple{2, 3, 1}) {
		t.Fatal("struct CAS with equal old failed")
	}
	if c.CompareAndSwap(ctx, triple{1, 0, 0}, triple{9, 9, 9}) {
		t.Fatal("struct CAS with stale old succeeded")
	}
	if got := c.Load(ctx); got != (triple{2, 3, 1}) {
		t.Fatalf("Load = %+v, want {2 3 1}", got)
	}
}

func TestStaleEpochPanics(t *testing.T) {
	sp := NewSpace()
	c := NewCell(sp, 0)
	ctx := sp.AcquireCtx(3, nil)
	sp.Crash()
	defer func() {
		r := recover()
		cr, ok := r.(Crashed)
		if !ok {
			t.Fatalf("recover() = %v, want Crashed", r)
		}
		if cr.PID != 3 {
			t.Fatalf("Crashed.PID = %d, want 3", cr.PID)
		}
		if cr.StartEpoch != 0 || cr.ObservedEpoch != 1 {
			t.Fatalf("Crashed epochs = %d→%d, want 0→1", cr.StartEpoch, cr.ObservedEpoch)
		}
	}()
	c.Load(ctx)
	t.Fatal("Load under stale epoch did not panic")
}

func TestCheckAlive(t *testing.T) {
	sp := NewSpace()
	ctx := sp.AcquireCtx(0, nil)
	ctx.CheckAlive() // must not panic before a crash
	sp.Crash()
	defer func() {
		if _, ok := recover().(Crashed); !ok {
			t.Fatal("CheckAlive after crash did not panic with Crashed")
		}
	}()
	ctx.CheckAlive()
}

func TestCrashAtStepPlan(t *testing.T) {
	sp := NewSpace()
	c := NewCell(sp, 0)
	ctx := sp.AcquireCtx(0, CrashAtStep(3))

	crashed := func() (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(Crashed); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		c.Store(ctx, 1) // step 1
		c.Store(ctx, 2) // step 2
		c.Store(ctx, 3) // step 3: crash fires before this store
		return false
	}()
	if !crashed {
		t.Fatal("plan CrashAtStep(3) did not fire")
	}
	if got := c.Peek(); got != 2 {
		t.Fatalf("value after crash-at-step-3 = %d, want 2 (third store must not land)", got)
	}
	if got := sp.Epoch().Current(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
}

func TestCrashAtStepFiresOnce(t *testing.T) {
	sp := NewSpace()
	c := NewCell(sp, 0)
	plan := CrashAtStep(1)

	func() {
		defer func() { recover() }()
		c.Store(sp.AcquireCtx(0, plan), 1)
		t.Fatal("first attempt did not crash")
	}()

	// A new attempt with the same plan object must run to completion.
	ctx := sp.AcquireCtx(0, plan)
	c.Store(ctx, 5)
	if got := c.Load(ctx); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
}

func TestCellConcurrentCAS(t *testing.T) {
	// Concurrent increments via CAS loops must not lose updates.
	const (
		procs = 8
		incs  = 200
	)
	sp := NewSpace()
	c := NewCell(sp, 0)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			ctx := sp.AcquireCtx(pid, nil)
			for i := 0; i < incs; i++ {
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

// TestCellMatchesSequentialModel is a property-based test: any sequence of
// load/store/CAS primitives applied to a Cell behaves exactly like a plain
// variable.
func TestCellMatchesSequentialModel(t *testing.T) {
	type op struct {
		Kind     uint8
		Arg, Old uint8
	}
	f := func(init uint8, ops []op) bool {
		sp := NewSpace()
		c := NewCell(sp, init)
		ctx := sp.AcquireCtx(0, nil)
		model := init
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0:
				if c.Load(ctx) != model {
					return false
				}
			case 1:
				c.Store(ctx, o.Arg)
				model = o.Arg
			case 2:
				ok := c.CompareAndSwap(ctx, o.Old, o.Arg)
				wantOK := model == o.Old
				if ok != wantOK {
					return false
				}
				if wantOK {
					model = o.Arg
				}
			}
		}
		return c.Peek() == model
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaybe(t *testing.T) {
	n := None[int]()
	if n.Set {
		t.Fatal("None().Set = true")
	}
	s := Some(9)
	if !s.Set || s.Val != 9 {
		t.Fatalf("Some(9) = %+v", s)
	}
	if n == s {
		t.Fatal("None == Some(9)")
	}
	if Some(9) != s {
		t.Fatal("Some(9) != Some(9); Maybe must be comparable by value")
	}
}

func TestOpKindString(t *testing.T) {
	cases := map[OpKind]string{
		KindLoad:  "load",
		KindStore: "store",
		KindCAS:   "cas",
		KindFlush: "flush",
		OpKind(0): "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
