package kv

import (
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// sweepLimit bounds the crash-schedule sweeps; a sweep fails if it never
// observes a crash-free run, so no injectable step is silently skipped.
const sweepLimit = 40

// TestPutCrashScheduleSweep injects a crash before every primitive step of
// a solo Put over an existing key: the verdict must be definite, linearized
// means the new value is visible, fail/not-invoked means the old one is —
// never a lost or half-applied write.
func TestPutCrashScheduleSweep(t *testing.T) {
	const oldVal, newVal = 1, 9
	sawFail, sawRecovered := false, false
	for step := uint64(1); ; step++ {
		if step > sweepLimit {
			t.Fatalf("no crash-free run within %d steps; raise sweepLimit", sweepLimit)
		}
		sys := runtime.NewSystem(2)
		s := New(sys)
		s.Put(0, "k", oldVal)

		out := s.Put(0, "k", newVal, nvm.CrashAtStep(step))
		got := s.Peek("k")
		switch out.Status {
		case runtime.StatusOK, runtime.StatusRecovered:
			if out.Status == runtime.StatusRecovered {
				sawRecovered = true
			}
			if got != newVal {
				t.Fatalf("step %d: verdict %v but k = %d, want %d", step, out.Status, got, newVal)
			}
		case runtime.StatusFailed, runtime.StatusNotInvoked:
			sawFail = sawFail || out.Status == runtime.StatusFailed
			if got != oldVal {
				t.Fatalf("step %d: verdict %v but k = %d, want %d", step, out.Status, got, oldVal)
			}
		default:
			t.Fatalf("step %d: indefinite outcome %+v", step, out)
		}

		// The store must remain fully usable on every path.
		if n := s.PutRetry(1, "k", 42); n < 1 {
			t.Fatalf("step %d: follow-up PutRetry invocations = %d", step, n)
		}
		if got := s.Peek("k"); got != 42 {
			t.Fatalf("step %d: follow-up put lost, k = %d", step, got)
		}

		if out.Status == runtime.StatusOK {
			if !sawFail || !sawRecovered {
				t.Fatalf("sweep ended at step %d without both verdicts (fail=%v recovered=%v)",
					step, sawFail, sawRecovered)
			}
			return
		}
	}
}

// TestDelCrashScheduleSweep is the deletion counterpart: a linearized Del
// leaves the key absent (zero), a definite fail leaves the old value.
func TestDelCrashScheduleSweep(t *testing.T) {
	const oldVal = 7
	sawFail, sawRecovered := false, false
	for step := uint64(1); ; step++ {
		if step > sweepLimit {
			t.Fatalf("no crash-free run within %d steps; raise sweepLimit", sweepLimit)
		}
		sys := runtime.NewSystem(2)
		s := New(sys)
		s.Put(0, "k", oldVal)

		out := s.Del(0, "k", nvm.CrashAtStep(step))
		got := s.Peek("k")
		switch out.Status {
		case runtime.StatusOK, runtime.StatusRecovered:
			if out.Status == runtime.StatusRecovered {
				sawRecovered = true
			}
			if got != 0 {
				t.Fatalf("step %d: verdict %v but k = %d, want deleted", step, out.Status, got)
			}
		case runtime.StatusFailed, runtime.StatusNotInvoked:
			sawFail = sawFail || out.Status == runtime.StatusFailed
			if got != oldVal {
				t.Fatalf("step %d: verdict %v but k = %d, want %d", step, out.Status, got, oldVal)
			}
		default:
			t.Fatalf("step %d: indefinite outcome %+v", step, out)
		}

		if out.Status == runtime.StatusOK {
			if !sawFail || !sawRecovered {
				t.Fatalf("sweep ended at step %d without both verdicts (fail=%v recovered=%v)",
					step, sawFail, sawRecovered)
			}
			return
		}
	}
}

// TestDelThenGetReadsZero pins the deletion semantics: a deleted key reads
// as the zero value, indistinguishable from a never-written key.
func TestDelThenGetReadsZero(t *testing.T) {
	sys := runtime.NewSystem(2)
	s := New(sys)
	s.Put(0, "k", 5)
	if out := s.Del(1, "k"); !out.Status.Linearized() {
		t.Fatalf("del outcome %+v", out)
	}
	if out := s.Get(0, "k"); out.Resp != 0 {
		t.Fatalf("get after del = %d, want 0", out.Resp)
	}
	if n := s.PutRetry(0, "never-written", 0); n < 1 {
		t.Fatalf("PutRetry of zero: invocations = %d", n)
	}
}
