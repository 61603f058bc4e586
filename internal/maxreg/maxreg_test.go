package maxreg

import (
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/linearize"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

func checkDL(t *testing.T, sys *runtime.System) linearize.Report {
	t.Helper()
	ok, rep, err := linearize.CheckLog(spec.MaxRegister{}, sys.Log())
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !ok {
		t.Fatalf("history not durably linearizable:\n%s", sys.Log())
	}
	return rep
}

func TestSequentialSemantics(t *testing.T) {
	sys := runtime.NewSystem(3)
	m := New(sys)
	m.WriteMax(0, 5)
	m.WriteMax(1, 3)
	if out := m.Read(2); out.Resp != 5 {
		t.Fatalf("read = %d, want 5", out.Resp)
	}
	m.WriteMax(1, 9)
	if out := m.Read(0); out.Resp != 9 {
		t.Fatalf("read = %d, want 9", out.Resp)
	}
	checkDL(t, sys)
}

func TestNoAuxiliaryState(t *testing.T) {
	// The defining property: operations receive no announcement. A
	// crash-free WriteMax performs at most 2 primitives (load + store) and
	// a Read with no contention exactly N+... collects; crucially ZERO
	// writes happen before the body starts.
	sys := runtime.NewSystem(4)
	m := New(sys)
	st := sys.Space().Stats()

	before := st.Total()
	m.WriteMax(0, 5)
	if got := st.Total() - before; got != 2 {
		t.Fatalf("WriteMax performed %d primitives, want 2 (no announcement)", got)
	}

	op := m.WriteMaxOp(0, 7)
	if op.Announce != nil {
		t.Fatal("WriteMaxOp has an Announce function")
	}
	if m.ReadOp(0).Announce != nil {
		t.Fatal("ReadOp has an Announce function")
	}
}

func TestWriteMaxIdempotentRecovery(t *testing.T) {
	// Crash at every step of a solo WriteMax; recovery re-invokes and the
	// final state is always correct, never doubled or lost.
	for step := uint64(1); step <= 2; step++ {
		sys := runtime.NewSystem(2)
		m := New(sys)
		out := m.WriteMax(0, 5, nvm.CrashAtStep(step))
		if out.Status != runtime.StatusRecovered {
			t.Fatalf("step %d: status %v, want recovered (re-invocation always completes)", step, out.Status)
		}
		if got := m.Peek(); got != 5 {
			t.Fatalf("step %d: value = %d, want 5", step, got)
		}
		checkDL(t, sys)
	}
}

func TestWriteMaxLowerValueNoop(t *testing.T) {
	sys := runtime.NewSystem(2)
	m := New(sys)
	m.WriteMax(0, 9)
	m.WriteMax(0, 4)
	if got := m.Peek(); got != 9 {
		t.Fatalf("value = %d, want 9", got)
	}
	checkDL(t, sys)
}

func TestReadCrashReinvokes(t *testing.T) {
	sys := runtime.NewSystem(2)
	m := New(sys)
	m.WriteMax(1, 7)
	// Read body: N loads per collect; crash mid-collect and recover.
	out := m.Read(0, nvm.CrashAtStep(2))
	if out.Status != runtime.StatusRecovered || out.Resp != 7 {
		t.Fatalf("outcome %+v, want recovered 7", out)
	}
	checkDL(t, sys)
}

// TestDoubleCollectRetries drives a writer between the reader's collects;
// the reader must retry and return a value from a valid snapshot.
func TestDoubleCollectRetries(t *testing.T) {
	sys := runtime.NewSystem(2)
	m := New(sys)
	wrote := false
	hook := &nvm.StepHook{
		Step: 2, // between the reader's first-collect loads
		Fn: func() {
			if !wrote {
				wrote = true
				m.WriteMax(1, 8)
			}
		},
	}
	out := m.Read(0, hook)
	if out.Status != runtime.StatusOK {
		t.Fatalf("status %v", out.Status)
	}
	// The writer completed before the reader's final double collect, so
	// the read must observe it.
	if out.Resp != 8 {
		t.Fatalf("read = %d, want 8", out.Resp)
	}
	checkDL(t, sys)
}

func TestRepeatedCrashesEventuallyComplete(t *testing.T) {
	sys := runtime.NewSystem(2)
	m := New(sys)
	out := m.WriteMax(0, 6,
		nvm.CrashAtStep(1), nvm.CrashAtStep(1), nvm.CrashAtStep(2), nvm.CrashAtStep(1),
	)
	if out.Status != runtime.StatusRecovered || out.Crashes != 4 {
		t.Fatalf("outcome %+v, want recovered after 4 crashes", out)
	}
	if got := m.Peek(); got != 6 {
		t.Fatalf("value = %d", got)
	}
	checkDL(t, sys)
}

// TestMonotoneReads: once a read returns v, no later read returns less.
func TestMonotoneReads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := runtime.NewSystem(1)
	m := New(sys)
	prev := 0
	for i := 0; i < 50; i++ {
		var plans []nvm.CrashPlan
		if rng.Intn(3) == 0 {
			plans = append(plans, nvm.CrashAtStep(uint64(1+rng.Intn(3))))
		}
		if rng.Intn(2) == 0 {
			m.WriteMax(0, rng.Intn(100), plans...)
		} else {
			out := m.Read(0, plans...)
			if out.Resp < prev {
				t.Fatalf("read %d after read %d: max register decreased", out.Resp, prev)
			}
			prev = out.Resp
		}
	}
	checkDL(t, sys)
}

func TestConcurrentStressWithStorms(t *testing.T) {
	const (
		procs   = 3
		rounds  = 6
		opsEach = 5
	)
	for round := 0; round < rounds; round++ {
		sys := runtime.NewSystem(procs)
		m := New(sys)

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
				if i%1000 == 0 {
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
					if rng.Intn(2) == 0 {
						m.WriteMax(pid, rng.Intn(50))
					} else {
						m.Read(pid)
					}
				}
			}(p)
		}
		wg.Wait()
		close(stop)
		storm.Wait()
		checkDL(t, sys)
	}
}

func TestPeekAggregates(t *testing.T) {
	sys := runtime.NewSystem(3)
	m := New(sys)
	m.WriteMax(0, 2)
	m.WriteMax(1, 7)
	m.WriteMax(2, 4)
	if got := m.Peek(); got != 7 {
		t.Fatalf("Peek = %d, want 7", got)
	}
	if m.n != 3 {
		t.Fatalf("n = %d", m.n)
	}
}
