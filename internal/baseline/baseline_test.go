package baseline

import (
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/linearize"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

func checkRegDL(t *testing.T, sys *runtime.System, initVal int) {
	t.Helper()
	ok, _, err := linearize.CheckLog(spec.Register{InitVal: initVal}, sys.Log())
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !ok {
		t.Fatalf("history not durably linearizable:\n%s", sys.Log())
	}
}

func checkCASDL(t *testing.T, sys *runtime.System, initVal int) {
	t.Helper()
	ok, _, err := linearize.CheckLog(spec.CAS{InitVal: initVal}, sys.Log())
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !ok {
		t.Fatalf("history not durably linearizable:\n%s", sys.Log())
	}
}

func TestSeqRegisterSequential(t *testing.T) {
	sys := runtime.NewSystem(2)
	reg := NewSeqRegister(sys, 0, runtime.EncodeInt)
	reg.Write(0, 5)
	if out := reg.Read(1); out.Resp != 5 {
		t.Fatalf("read = %d", out.Resp)
	}
	reg.Write(1, 9)
	if out := reg.Read(0); out.Resp != 9 {
		t.Fatalf("read = %d", out.Resp)
	}
	checkRegDL(t, sys, 0)
}

func TestSeqRegisterUnboundedGrowth(t *testing.T) {
	sys := runtime.NewSystem(1)
	reg := NewSeqRegister(sys, 0, runtime.EncodeInt)
	const writes = 100
	for i := 0; i < writes; i++ {
		reg.Write(0, 7) // same value every time — yet every tag distinct
	}
	if got := reg.MaxSeq(); got != writes {
		t.Fatalf("MaxSeq = %d, want %d (the unbounded growth the paper eliminates)", got, writes)
	}
}

// TestSeqRegisterCrashEveryStep mirrors the rw test: the verdict must agree
// with whether the write reached R.
func TestSeqRegisterCrashEveryStep(t *testing.T) {
	// Body: seq load(4), seq store(5), R load(6), RD store(7), CP(8),
	// R store(9), result(10).
	for step := uint64(1); step <= 10; step++ {
		sys := runtime.NewSystem(2)
		reg := NewSeqRegister(sys, 100, runtime.EncodeInt)
		out := reg.Write(0, 5, nvm.CrashAtStep(step))
		got := reg.PeekVal()
		switch out.Status {
		case runtime.StatusOK:
			t.Fatalf("step %d: no crash fired", step)
		case runtime.StatusNotInvoked, runtime.StatusFailed:
			if got != 100 {
				t.Fatalf("step %d: verdict %v but R = %d", step, out.Status, got)
			}
		case runtime.StatusRecovered:
			if got != 5 {
				t.Fatalf("step %d: recovered but R = %d", step, got)
			}
		}
		checkRegDL(t, sys, 100)
	}
}

func TestSeqCASSequential(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewSeqCAS(sys, 0, runtime.EncodeInt)
	if out := o.Cas(0, 0, 5); !out.Resp {
		t.Fatal("cas(0,5) failed")
	}
	if out := o.Cas(1, 0, 9); out.Resp {
		t.Fatal("cas(0,9) on 5 succeeded")
	}
	if out := o.Read(1); out.Resp != 5 {
		t.Fatalf("read = %d", out.Resp)
	}
	checkCASDL(t, sys, 0)
}

func TestSeqCASCrashEveryStep(t *testing.T) {
	// Success path body: seq load(4), seq store(5), C load(6), help(7),
	// CP(8), CAS(9), result(10).
	for step := uint64(1); step <= 10; step++ {
		sys := runtime.NewSystem(2)
		o := NewSeqCAS(sys, 0, runtime.EncodeInt)
		out := o.Cas(0, 0, 5, nvm.CrashAtStep(step))
		got := o.PeekVal()
		switch out.Status {
		case runtime.StatusOK:
			t.Fatalf("step %d: no crash fired", step)
		case runtime.StatusNotInvoked, runtime.StatusFailed:
			if got != 0 {
				t.Fatalf("step %d: verdict %v but C = %d", step, out.Status, got)
			}
		case runtime.StatusRecovered:
			if !out.Resp || got != 5 {
				t.Fatalf("step %d: recovered %v, C = %d", step, out.Resp, got)
			}
		}
		checkCASDL(t, sys, 0)
	}
}

// TestSeqCASOverwrittenDetection: p's successful CAS is overwritten before
// p recovers; the help slot must still prove success.
func TestSeqCASOverwrittenDetection(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewSeqCAS(sys, 0, runtime.EncodeInt)
	p, q := 0, 1

	hook := &nvm.StepHook{
		Step: 10, // immediately after p's CAS primitive, before persisting
		Fn: func() {
			if out := o.Cas(q, 5, 9); !out.Resp {
				t.Error("q's overwrite failed")
			}
		},
	}
	out := o.Cas(p, 0, 5, nvm.Plans{hook, nvm.CrashAtStep(10)})
	if out.Status != runtime.StatusRecovered || !out.Resp {
		t.Fatalf("outcome %+v, want recovered true via help slot", out)
	}
	if got := o.PeekVal(); got != 9 {
		t.Fatalf("C = %d, want q's 9", got)
	}
	checkCASDL(t, sys, 0)
}

func TestSeqCASLostRaceFails(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewSeqCAS(sys, 0, runtime.EncodeInt)
	p, q := 0, 1
	hook := &nvm.StepHook{
		Step: 9, // before p's CAS primitive
		Fn: func() {
			o.Cas(q, 0, 9)
		},
	}
	out := o.Cas(p, 0, 5, nvm.Plans{hook, nvm.CrashAtStep(10)})
	if out.Status != runtime.StatusFailed {
		t.Fatalf("status %v, want failed", out.Status)
	}
	checkCASDL(t, sys, 0)
}

// TestSeqCASEqualValueRaceSucceeds: q's CAS of 0 to 0 re-tags C between
// p's read and p's swap. The value is still 0, so p's CAS of 0 to 5 must
// succeed — a single-shot swap failed it, the rare violation
// TestSeqCASConcurrentStorm caught.
func TestSeqCASEqualValueRaceSucceeds(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewSeqCAS(sys, 0, runtime.EncodeInt)
	p, q := 0, 1
	hook := &nvm.StepHook{
		Step: 9, // before p's CAS primitive
		Fn: func() {
			if out := o.Cas(q, 0, 0); !out.Resp {
				t.Error("q's cas(0, 0) failed")
			}
		},
	}
	out := o.Cas(p, 0, 5, hook)
	if out.Status != runtime.StatusOK || !out.Resp {
		t.Fatalf("outcome %+v, want ok true", out)
	}
	if got := o.PeekVal(); got != 5 {
		t.Fatalf("C = %d, want 5", got)
	}
	checkCASDL(t, sys, 0)
}

func TestSeqCASRandomSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		sys := runtime.NewSystem(1)
		o := NewSeqCAS(sys, 0, runtime.EncodeInt)
		model := 0
		for i := 0; i < 5; i++ {
			var plans []nvm.CrashPlan
			if rng.Intn(2) == 0 {
				plans = append(plans, nvm.CrashAtStep(uint64(1+rng.Intn(10))))
			}
			old, new := rng.Intn(3), rng.Intn(3)
			out := o.Cas(0, old, new, plans...)
			if out.Status.Linearized() {
				if out.Resp != (model == old) {
					t.Fatalf("trial %d: cas(%d,%d) on %d = %v", trial, old, new, model, out.Resp)
				}
				if out.Resp {
					model = new
				}
			}
			if got := o.PeekVal(); got != model {
				t.Fatalf("trial %d: val=%d model=%d", trial, got, model)
			}
		}
		checkCASDL(t, sys, 0)
	}
}

func TestSeqCASConcurrentStorm(t *testing.T) {
	const procs = 3
	for round := 0; round < 5; round++ {
		sys := runtime.NewSystem(procs)
		o := NewSeqCAS(sys, 0, runtime.EncodeInt)
		stop := make(chan struct{})
		var storm sync.WaitGroup
		storm.Add(1)
		go func() {
			defer storm.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				if i%900 == 0 {
					sys.Crash()
				}
			}
		}()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*7 + pid)))
				for i := 0; i < 5; i++ {
					o.Cas(pid, rng.Intn(3), rng.Intn(3))
				}
			}(p)
		}
		wg.Wait()
		close(stop)
		storm.Wait()
		checkCASDL(t, sys, 0)
	}
}

func TestPlainObjects(t *testing.T) {
	sys := runtime.NewSystem(2)
	reg := NewPlainRegister(sys, 0)
	reg.Write(0, 4)
	if got := reg.Read(1); got != 4 {
		t.Fatalf("plain read = %d", got)
	}
	c := NewPlainCAS(sys, 0)
	if !c.Cas(0, 0, 3) {
		t.Fatal("plain cas failed")
	}
	if c.Cas(1, 0, 9) {
		t.Fatal("plain cas with stale old succeeded")
	}
	if got := c.Read(0); got != 3 {
		t.Fatalf("plain cas read = %d", got)
	}
}
