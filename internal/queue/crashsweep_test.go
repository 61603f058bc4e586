package queue

import (
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// sweepLimit bounds the crash-schedule sweeps: every solo Enq/Deq completes
// in far fewer primitive steps. A sweep fails if the limit is ever reached
// without observing a crash-free run, so the bound can never silently hide
// untested steps.
const sweepLimit = 60

// count returns the number of occurrences of v in vals.
func count(vals []int, v int) int {
	n := 0
	for _, x := range vals {
		if x == v {
			n++
		}
	}
	return n
}

// TestEnqCrashScheduleSweep injects a crash before every primitive step of
// a solo Enq in turn and asserts the detectability contract at each one:
// the verdict is definite, a linearized verdict means the value is in the
// queue exactly once, and a fail/not-invoked verdict means it is absent —
// never a lost or duplicated enqueue.
func TestEnqCrashScheduleSweep(t *testing.T) {
	sawFail, sawRecovered := false, false
	for step := uint64(1); ; step++ {
		if step > sweepLimit {
			t.Fatalf("no crash-free run within %d steps; raise sweepLimit", sweepLimit)
		}
		sys := runtime.NewSystem(2)
		q := New(sys)
		q.Enq(0, 10)
		q.Enq(0, 20)

		out := q.Enq(0, 77, nvm.CrashAtStep(step))
		got := count(q.PeekAll(), 77)
		switch out.Status {
		case runtime.StatusOK:
			if got != 1 {
				t.Fatalf("step %d: crash-free enqueue left %d copies", step, got)
			}
			if !sawFail || !sawRecovered {
				t.Fatalf("sweep ended at step %d without both verdicts (fail=%v recovered=%v)",
					step, sawFail, sawRecovered)
			}
			return // the plan no longer fires: every step is covered
		case runtime.StatusRecovered:
			sawRecovered = true
			if got != 1 {
				t.Fatalf("step %d: verdict recovered but %d copies of 77 (want 1)", step, got)
			}
		case runtime.StatusFailed, runtime.StatusNotInvoked:
			sawFail = sawFail || out.Status == runtime.StatusFailed
			if got != 0 {
				t.Fatalf("step %d: verdict %v but %d copies of 77 (want 0)", step, out.Status, got)
			}
		default:
			t.Fatalf("step %d: indefinite outcome %+v", step, out)
		}

		// The queue must stay fully operational: drain and check FIFO order.
		want := []int{10, 20}
		if out.Status.Linearized() {
			want = append(want, 77)
		}
		for _, w := range want {
			d := q.Deq(1)
			if !d.Status.Linearized() || d.Resp != w {
				t.Fatalf("step %d: drain %+v, want %d", step, d, w)
			}
		}
		if d := q.Deq(1); d.Resp != spec.Empty {
			t.Fatalf("step %d: queue not empty after drain: %+v", step, d)
		}
	}
}

// TestDeqCrashScheduleSweep is the dequeue counterpart: a crash before
// every step of a solo Deq on a two-element queue must yield either a
// linearized response of the head value with the element removed exactly
// once, or a definite fail with both elements still present.
func TestDeqCrashScheduleSweep(t *testing.T) {
	sawFail, sawRecovered := false, false
	for step := uint64(1); ; step++ {
		if step > sweepLimit {
			t.Fatalf("no crash-free run within %d steps; raise sweepLimit", sweepLimit)
		}
		sys := runtime.NewSystem(2)
		q := New(sys)
		q.Enq(0, 10)
		q.Enq(0, 20)

		out := q.Deq(0, nvm.CrashAtStep(step))
		rest := q.PeekAll()
		switch out.Status {
		case runtime.StatusOK, runtime.StatusRecovered:
			if out.Status == runtime.StatusRecovered {
				sawRecovered = true
			}
			if out.Resp != 10 {
				t.Fatalf("step %d: dequeued %d, want 10 (FIFO violated)", step, out.Resp)
			}
			if len(rest) != 1 || rest[0] != 20 {
				t.Fatalf("step %d: remaining %v after linearized deq, want [20]", step, rest)
			}
		case runtime.StatusFailed, runtime.StatusNotInvoked:
			sawFail = sawFail || out.Status == runtime.StatusFailed
			if len(rest) != 2 || rest[0] != 10 || rest[1] != 20 {
				t.Fatalf("step %d: verdict %v but queue is %v (lost element)", step, out.Status, rest)
			}
		default:
			t.Fatalf("step %d: indefinite outcome %+v", step, out)
		}

		// Drain what is left and confirm nothing is duplicated or stuck.
		for _, w := range rest {
			d := q.Deq(1)
			if !d.Status.Linearized() || d.Resp != w {
				t.Fatalf("step %d: drain %+v, want %d", step, d, w)
			}
		}
		if d := q.Deq(1); d.Resp != spec.Empty {
			t.Fatalf("step %d: queue not empty after drain", step)
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

// TestDeqEmptyCrashScheduleSweep sweeps a solo Deq on an empty queue: every
// linearized verdict must report Empty and the queue must stay empty.
func TestDeqEmptyCrashScheduleSweep(t *testing.T) {
	for step := uint64(1); ; step++ {
		if step > sweepLimit {
			t.Fatalf("no crash-free run within %d steps; raise sweepLimit", sweepLimit)
		}
		sys := runtime.NewSystem(1)
		q := New(sys)
		out := q.Deq(0, nvm.CrashAtStep(step))
		if out.Status.Linearized() && out.Resp != spec.Empty {
			t.Fatalf("step %d: dequeued %d from an empty queue", step, out.Resp)
		}
		if n := len(q.PeekAll()); n != 0 {
			t.Fatalf("step %d: empty queue now has %d elements", step, n)
		}
		if out.Status == runtime.StatusOK {
			return
		}
	}
}
