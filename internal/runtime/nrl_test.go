package runtime_test

// The paper's Section 6 transformation over the real objects: ExecuteNRL
// re-invokes an operation whose verdict is fail, so every call completes
// with a linearized response. A crash storm forces re-invocations; a
// re-invoked write still lands once, a CAS chain advances exactly once per
// step, and the histories — failed attempts included — verify.

import (
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/linearize"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/spec"
)

// nrlWrite writes val to reg as pid, re-invoking until it linearizes, and
// returns the invocations used.
func nrlWrite(sys *runtime.System, reg rw.Register, pid, val int) int {
	_, inv := runtime.ExecuteNRL(sys, pid, func() runtime.Op[int] { return reg.WriteOp(pid, val) })
	return inv
}

func nrlRead(sys *runtime.System, reg rw.Register, pid int) int {
	v, _ := runtime.ExecuteNRL(sys, pid, func() runtime.Op[int] { return reg.ReadOp(pid) })
	return v
}

func nrlCas(sys *runtime.System, c *rcas.CAS[int], pid, old, new int) (bool, int) {
	return runtime.ExecuteNRL(sys, pid, func() runtime.Op[bool] { return c.CasOp(pid, old, new) })
}

// crashStorm crashes sys every period spins until the returned function is
// called.
func crashStorm(sys *runtime.System, period int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%period == 0 {
				sys.Crash()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func TestNRLRegisterAlwaysCompletes(t *testing.T) {
	sys := runtime.NewSystem(1)
	reg := rw.NewInt(sys, 0)
	if inv := nrlWrite(sys, reg, 0, 5); inv != 1 {
		t.Fatalf("crash-free write used %d invocations", inv)
	}
	if got := nrlRead(sys, reg, 0); got != 5 {
		t.Fatalf("read = %d", got)
	}
}

// TestNRLRegisterRetriesThroughCrashes: under a crash storm every write
// lands before its call returns.
func TestNRLRegisterRetriesThroughCrashes(t *testing.T) {
	sys := runtime.NewSystem(1)
	reg := rw.NewInt(sys, 0)
	stop := crashStorm(sys, 300)
	const writes = 40
	total := 0
	for i := 1; i <= writes; i++ {
		total += nrlWrite(sys, reg, 0, i)
		if got := reg.PeekTriple().Val; got != i {
			t.Fatalf("write %d not landed: value %d", i, got)
		}
	}
	stop()
	if total < writes {
		t.Fatalf("invocations = %d < writes", total)
	}
	t.Logf("%d writes used %d invocations", writes, total)
}

// TestNRLHistoryStaysLinearizable: re-invocations appear as separate
// operations, failed attempts excluded; the history still verifies.
func TestNRLHistoryStaysLinearizable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sys := runtime.NewSystem(1)
	reg := rw.NewInt(sys, 0)
	for i := 1; i <= 8; i++ {
		if rng.Intn(2) == 0 {
			sys.Crash() // an idle crash: epoch churn
		}
		nrlWrite(sys, reg, 0, i)
		nrlRead(sys, reg, 0)
	}
	if ok, rep, err := linearize.CheckLog(spec.Register{}, sys.Log()); err != nil || !ok {
		t.Fatalf("history check: ok=%v err=%v report %+v", ok, err, rep)
	}
}

func TestNRLCASAlwaysCompletes(t *testing.T) {
	sys := runtime.NewSystem(1)
	c := rcas.NewInt(sys, 0)
	if res, inv := nrlCas(sys, c, 0, 0, 9); !res || inv != 1 {
		t.Fatalf("cas = (%v, %d)", res, inv)
	}
	if res, _ := nrlCas(sys, c, 0, 0, 5); res {
		t.Fatal("stale cas succeeded")
	}
	if got, _ := runtime.ExecuteNRL(sys, 0, func() runtime.Op[int] { return c.ReadOp(0) }); got != 9 {
		t.Fatalf("read = %d", got)
	}
}

// TestNRLCASExactlyOnceThroughCrashes: a monotone chain 0→1→2→… under a
// crash storm; each Cas(i, i+1) succeeds exactly once (a duplicated
// application would skip a value).
func TestNRLCASExactlyOnceThroughCrashes(t *testing.T) {
	sys := runtime.NewSystem(1)
	c := rcas.NewInt(sys, 0)
	stop := crashStorm(sys, 400)
	const steps = 30
	for i := 0; i < steps; i++ {
		if res, _ := nrlCas(sys, c, 0, i, i+1); !res {
			t.Fatalf("cas(%d,%d) returned false; chain broken at %d", i, i+1, c.PeekPair().Val)
		}
	}
	stop()
	if got := c.PeekPair().Val; got != steps {
		t.Fatalf("value = %d, want %d", got, steps)
	}
}

func TestNRLConcurrentWritersLastValueWins(t *testing.T) {
	const procs = 3
	sys := runtime.NewSystem(procs)
	reg := rw.NewInt(sys, 0)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 1; i <= 10; i++ {
				nrlWrite(sys, reg, pid, pid*100+i)
			}
		}(p)
	}
	wg.Wait()
	got := reg.PeekTriple().Val
	if p := got / 100; p < 0 || p >= procs || got%100 < 1 || got%100 > 10 {
		t.Fatalf("final value %d was never written", got)
	}
	if ok, _, err := linearize.CheckLog(spec.Register{}, sys.Log()); err != nil || !ok {
		t.Fatalf("history check: ok=%v err=%v", ok, err)
	}
}
