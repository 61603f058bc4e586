package rcas

import (
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/linearize"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// Body step offsets (after the 3-primitive announcement), success path:
//
//	step 4: line 28 load C
//	step 5: line 33 store RDp
//	step 6: line 34 CP := 1
//	step 7: line 35 CAS on C
//	step 8: line 36 persist result
const (
	stepLoadC    = 4
	stepStoreRD  = 5
	stepCP1      = 6
	stepCASPrim  = 7
	stepPersist  = 8
	lastBodyStep = 8
)

func checkDL(t *testing.T, sys *runtime.System, initVal int) linearize.Report {
	t.Helper()
	ok, rep, err := linearize.CheckLog(spec.CAS{InitVal: initVal}, sys.Log())
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !ok {
		t.Fatalf("history not durably linearizable:\n%s", sys.Log())
	}
	return rep
}

func TestSequentialCas(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 0)
	if out := o.Cas(0, 0, 5); out.Status != runtime.StatusOK || !out.Resp {
		t.Fatalf("cas(0,5) on 0: %+v", out)
	}
	if out := o.Cas(1, 0, 9); out.Status != runtime.StatusOK || out.Resp {
		t.Fatalf("cas(0,9) on 5: %+v, want false", out)
	}
	if out := o.Read(1); out.Resp != 5 {
		t.Fatalf("read = %d, want 5", out.Resp)
	}
	checkDL(t, sys, 0)
}

func TestSuccessfulCasFlipsBit(t *testing.T) {
	sys := runtime.NewSystem(3)
	o := NewInt(sys, 0)
	if got := o.PeekPair().Bit(2); got {
		t.Fatal("vec[2] initially set")
	}
	o.Cas(2, 0, 1)
	if !o.PeekPair().Bit(2) {
		t.Fatal("vec[2] not flipped by successful CAS")
	}
	o.Cas(2, 1, 2)
	if o.PeekPair().Bit(2) {
		t.Fatal("vec[2] not flipped back by second successful CAS")
	}
}

func TestFailedCasLeavesBit(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 0)
	o.Cas(1, 7, 9) // fails: val is 0
	if o.PeekPair().Bit(1) {
		t.Fatal("vec[1] flipped by failed CAS")
	}
	if o.PeekPair().Val != 0 {
		t.Fatalf("val = %d, want 0", o.PeekPair().Val)
	}
}

// TestSoloCrashEveryStep injects a crash before every primitive of a solo
// successful-path Cas. Contract: fail ⟺ C unchanged; true ⟺ C swapped.
func TestSoloCrashEveryStep(t *testing.T) {
	for step := uint64(1); step <= lastBodyStep; step++ {
		sys := runtime.NewSystem(2)
		o := NewInt(sys, 0)
		out := o.Cas(0, 0, 5, nvm.CrashAtStep(step))

		pair := o.PeekPair()
		switch out.Status {
		case runtime.StatusOK:
			t.Fatalf("step %d: no crash fired", step)
		case runtime.StatusNotInvoked, runtime.StatusFailed:
			if pair.Val != 0 {
				t.Fatalf("step %d: verdict %v but C = %+v", step, out.Status, pair)
			}
		case runtime.StatusRecovered:
			if !out.Resp {
				// A recovered false is only possible when the CAS lost a
				// race; solo it must be true with the swap applied.
				t.Fatalf("step %d: recovered false in solo run", step)
			}
			if pair.Val != 5 || !pair.Bit(0) {
				t.Fatalf("step %d: recovered true but C = %+v", step, pair)
			}
		}
		checkDL(t, sys, 0)

		// Follow-up CAS from the observed state must work.
		cur := o.PeekPair().Val
		if out := o.Cas(1, cur, 42); !out.Status.Linearized() || !out.Resp {
			t.Fatalf("step %d: follow-up cas: %+v", step, out)
		}
	}
}

func TestCrashBeforeCASPrimitiveFails(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 0)
	out := o.Cas(0, 0, 5, nvm.CrashAtStep(stepCASPrim))
	if out.Status != runtime.StatusFailed {
		t.Fatalf("status %v, want failed (CAS never executed)", out.Status)
	}
	if o.PeekPair().Val != 0 {
		t.Fatal("C changed by failed op")
	}
	checkDL(t, sys, 0)
}

func TestCrashAfterCASRecoversTrue(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 0)
	out := o.Cas(0, 0, 5, nvm.CrashAtStep(stepPersist))
	if out.Status != runtime.StatusRecovered || !out.Resp {
		t.Fatalf("outcome %+v, want recovered true", out)
	}
	if o.PeekPair().Val != 5 {
		t.Fatalf("val = %d, want 5", o.PeekPair().Val)
	}
	checkDL(t, sys, 0)
}

// TestCrashAfterLostRace: a competitor's successful CAS lands between p's
// load and p's CAS primitive, p's CAS therefore fails, and the crash hits
// before the response is persisted. vec[p] ≠ RDp, so recovery returns fail.
func TestCrashAfterLostRace(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 0)
	p, q := 0, 1

	hook := &nvm.StepHook{
		Step: stepCASPrim, // immediately before p's CAS primitive
		Fn: func() {
			if out := o.Cas(q, 0, 9); !out.Resp {
				t.Error("q's CAS lost unexpectedly")
			}
		},
	}
	out := o.Cas(p, 0, 5, nvm.Plans{hook, nvm.CrashAtStep(stepPersist)})
	if out.Status != runtime.StatusFailed {
		t.Fatalf("status %v, want failed (lost race, response not persisted)", out.Status)
	}
	if got := o.PeekPair().Val; got != 9 {
		t.Fatalf("val = %d, want q's 9", got)
	}
	checkDL(t, sys, 0)
}

// TestValueRestoredRaceSucceeds: q swaps the value away and back (0→9→0)
// while p is paused before its CAS primitive. q's two successful CASes flip
// vec[q] twice, fully restoring the pair, so p's CAS legitimately succeeds —
// and that is linearizable (the value really is 0 when p's CAS executes).
// The flip vector's job is different: only p can flip vec[p], so *recovery*
// can never be fooled about p's own CAS (TestCrashAfterLostRace).
func TestValueRestoredRaceSucceeds(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 0)
	p, q := 0, 1

	hook := &nvm.StepHook{
		Step: stepCASPrim,
		Fn: func() {
			o.Cas(q, 0, 9)
			o.Cas(q, 9, 0)
		},
	}
	out := o.Cas(p, 0, 5, hook)
	if out.Status != runtime.StatusOK || !out.Resp {
		t.Fatalf("outcome %+v, want completed true", out)
	}
	if got := o.PeekPair().Val; got != 5 {
		t.Fatalf("val = %d, want 5", got)
	}
	checkDL(t, sys, 0)
}

func TestValMismatchCrashBeforePersistFails(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 3)
	// val ≠ old: the body persists false at its 2nd primitive (overall step
	// 5). A crash before it leaves CP=0 → fail.
	out := o.Cas(0, 0, 5, nvm.CrashAtStep(5))
	if out.Status != runtime.StatusFailed {
		t.Fatalf("status %v, want failed", out.Status)
	}
	checkDL(t, sys, 3)
}

// TestRecoverReturnsPersistedResult exercises lines 38-39: once the
// response is persisted (here by a completed false-returning Cas), any
// later recovery call returns it directly.
func TestRecoverReturnsPersistedResult(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 3)
	op := o.CasOp(0, 0, 5)
	out := runtime.Execute(sys, 0, op)
	if out.Status != runtime.StatusOK || out.Resp {
		t.Fatalf("outcome %+v, want completed false", out)
	}
	r, ok := op.Recover(sys.Space().AcquireCtx(0, nil))
	if !ok || r {
		t.Fatalf("Recover = (%v, %v), want persisted false", r, ok)
	}

	// Same for a successful Cas whose response persist was interrupted and
	// then recovered (line 45 persists true); re-recovery hits line 38.
	op2 := o.CasOp(0, 3, 4)
	out = runtime.Execute(sys, 0, op2, nvm.CrashAtStep(stepPersist))
	if out.Status != runtime.StatusRecovered || !out.Resp {
		t.Fatalf("outcome %+v, want recovered true", out)
	}
	r, ok = op2.Recover(sys.Space().AcquireCtx(0, nil))
	if !ok || !r {
		t.Fatalf("Recover = (%v, %v), want persisted true", r, ok)
	}
}

func TestCrashDuringRecoveryIdempotent(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 0)
	out := o.Cas(0, 0, 5,
		nvm.CrashAtStep(stepPersist), // body: crash after successful CAS
		nvm.CrashAtStep(2),           // crash 1st recovery attempt
		nvm.CrashAtStep(3),           // crash 2nd recovery attempt
	)
	if out.Status != runtime.StatusRecovered || !out.Resp {
		t.Fatalf("outcome %+v", out)
	}
	if out.Crashes != 3 {
		t.Fatalf("crashes = %d, want 3", out.Crashes)
	}
	checkDL(t, sys, 0)
}

func TestReadRecovery(t *testing.T) {
	sys := runtime.NewSystem(2)
	o := NewInt(sys, 8)
	out := o.Read(0, nvm.CrashAtStep(4)) // crash before the body's load
	if out.Status != runtime.StatusRecovered || out.Resp != 8 {
		t.Fatalf("outcome %+v", out)
	}
	checkDL(t, sys, 8)
}

// TestRandomSoloCrashes: single-process random CAS/read sequences with
// random crash points; the model tracks the value, every verdict and every
// history must be consistent.
func TestRandomSoloCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		sys := runtime.NewSystem(1)
		o := NewInt(sys, 0)
		model := 0
		for i := 0; i < 6; i++ {
			var plans []nvm.CrashPlan
			if rng.Intn(2) == 0 {
				plans = append(plans, nvm.CrashAtStep(uint64(1+rng.Intn(9))))
			}
			old, new := rng.Intn(3), rng.Intn(3)
			out := o.Cas(0, old, new, plans...)
			if out.Status.Linearized() {
				wantResp := model == old
				if out.Resp != wantResp {
					t.Fatalf("trial %d: cas(%d,%d) on %d returned %v", trial, old, new, model, out.Resp)
				}
				if out.Resp {
					model = new
				}
			}
			if got := o.PeekPair().Val; got != model {
				// Solo: fail verdicts must leave the object unchanged.
				t.Fatalf("trial %d: val=%d model=%d status=%v", trial, got, model, out.Status)
			}
		}
		checkDL(t, sys, 0)
	}
}

// TestConcurrentStressWithStorms: concurrent CAS/read workers under a crash
// storm; every batch history must be durably linearizable.
func TestConcurrentStressWithStorms(t *testing.T) {
	const (
		procs   = 3
		rounds  = 8
		opsEach = 5
	)
	for round := 0; round < rounds; round++ {
		sys := runtime.NewSystem(procs)
		o := NewInt(sys, 0)

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
				if i%800 == 0 {
					sys.Crash()
				}
			}
		}()

		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*10 + pid)))
				for i := 0; i < opsEach; i++ {
					if rng.Intn(3) == 0 {
						o.Read(pid)
					} else {
						o.Cas(pid, rng.Intn(3), rng.Intn(3))
					}
				}
			}(p)
		}
		wg.Wait()
		close(stop)
		storm.Wait()
		checkDL(t, sys, 0)
	}
}

// TestExactlyOnceSemantics uses the detectable verdicts to implement an
// exactly-once increment (re-invoke on fail, never on true) and checks no
// increment is lost or duplicated even under heavy crash injection.
func TestExactlyOnceSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := runtime.NewSystem(1)
	o := NewInt(sys, 0)
	const target = 40
	done := 0
	for done < target {
		cur := o.PeekPair().Val
		var plans []nvm.CrashPlan
		if rng.Intn(3) == 0 {
			plans = append(plans, nvm.CrashAtStep(uint64(1+rng.Intn(9))))
		}
		out := o.Cas(0, cur, cur+1, plans...)
		switch out.Status {
		case runtime.StatusOK, runtime.StatusRecovered:
			if out.Resp {
				done++
			}
		case runtime.StatusFailed, runtime.StatusNotInvoked:
			// Not linearized: safe to re-invoke.
		}
	}
	if got := o.PeekPair().Val; got != target {
		t.Fatalf("value = %d, want %d (lost or duplicated increments)", got, target)
	}
}

func TestTooManyProcessesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for N > 64")
		}
	}()
	NewInt(runtime.NewSystem(65), 0)
}

func TestPairBit(t *testing.T) {
	p := Pair[int]{Vec: 0b101}
	if !p.Bit(0) || p.Bit(1) || !p.Bit(2) {
		t.Fatalf("Bit decoding wrong for vec %b", p.Vec)
	}
}
