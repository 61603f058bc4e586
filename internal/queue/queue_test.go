package queue

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"detectable/internal/linearize"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

func checkDL(t *testing.T, sys *runtime.System) linearize.Report {
	t.Helper()
	ok, rep, err := linearize.CheckLog(spec.Queue{}, sys.Log())
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	if !ok {
		t.Fatalf("history not durably linearizable:\n%s", sys.Log())
	}
	return rep
}

func TestFIFOSequential(t *testing.T) {
	sys := runtime.NewSystem(2)
	q := New(sys)
	for _, v := range []int{1, 2, 3} {
		if out := q.Enq(0, v); out.Status != runtime.StatusOK {
			t.Fatalf("enq(%d): %+v", v, out)
		}
	}
	for _, want := range []int{1, 2, 3} {
		out := q.Deq(1)
		if out.Resp != want {
			t.Fatalf("deq = %d, want %d", out.Resp, want)
		}
	}
	if out := q.Deq(1); out.Resp != spec.Empty {
		t.Fatalf("deq on empty = %d, want Empty", out.Resp)
	}
	checkDL(t, sys)
}

func TestEnqCrashBeforeLinkFails(t *testing.T) {
	sys := runtime.NewSystem(2)
	q := New(sys)
	// Body: enqNode store(4), CP(5), tail load(6), next load(7), link CAS(8).
	out := q.Enq(0, 7, nvm.CrashAtStep(8))
	if out.Status != runtime.StatusFailed {
		t.Fatalf("status %v, want failed (node never linked)", out.Status)
	}
	if len(q.PeekAll()) != 0 {
		t.Fatalf("queue has %d elements after failed enq", len(q.PeekAll()))
	}
	checkDL(t, sys)
}

func TestEnqCrashAfterLinkRecovers(t *testing.T) {
	sys := runtime.NewSystem(2)
	q := New(sys)
	// Crash right after the link CAS (before the tail help CAS at step 9).
	out := q.Enq(0, 7, nvm.CrashAtStep(9))
	if out.Status != runtime.StatusRecovered {
		t.Fatalf("status %v, want recovered (node linked)", out.Status)
	}
	if got := q.PeekAll(); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("queue = %v, want [7]", got)
	}
	// The tail may be stale; a follow-up enqueue must still succeed.
	if out := q.Enq(1, 8); !out.Status.Linearized() {
		t.Fatalf("follow-up enq: %+v", out)
	}
	if got := q.PeekAll(); !reflect.DeepEqual(got, []int{7, 8}) {
		t.Fatalf("queue = %v, want [7 8]", got)
	}
	checkDL(t, sys)
}

func TestDeqCrashBeforeClaimFails(t *testing.T) {
	sys := runtime.NewSystem(2)
	q := New(sys)
	q.Enq(0, 5)
	// Deq body: seq load(4), seq store(5), head(6), tail(7), next(8),
	// target store(9), CP(10), claim CAS(11).
	out := q.Deq(1, nvm.CrashAtStep(11))
	if out.Status != runtime.StatusFailed {
		t.Fatalf("status %v, want failed", out.Status)
	}
	if got := q.PeekAll(); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("queue = %v, want [5] (element must not be lost)", got)
	}
	checkDL(t, sys)
}

func TestDeqCrashAfterClaimRecovers(t *testing.T) {
	sys := runtime.NewSystem(2)
	q := New(sys)
	q.Enq(0, 5)
	q.Enq(0, 6)
	// Crash right after the claim CAS (step 12 is the head CAS).
	out := q.Deq(1, nvm.CrashAtStep(12))
	if out.Status != runtime.StatusRecovered || out.Resp != 5 {
		t.Fatalf("outcome %+v, want recovered 5", out)
	}
	// Element 5 must be gone, 6 still present.
	if got := q.PeekAll(); !reflect.DeepEqual(got, []int{6}) {
		t.Fatalf("queue = %v, want [6]", got)
	}
	// Follow-up dequeue gets 6, not 5 again.
	if out := q.Deq(0); out.Resp != 6 {
		t.Fatalf("follow-up deq = %d, want 6", out.Resp)
	}
	checkDL(t, sys)
}

func TestDeqEmptyCrashBeforePersistFails(t *testing.T) {
	sys := runtime.NewSystem(1)
	q := New(sys)
	// Empty path: seq load(4), seq store(5), head(6), tail(7), next(8),
	// result persist(9).
	out := q.Deq(0, nvm.CrashAtStep(9))
	if out.Status != runtime.StatusFailed {
		t.Fatalf("status %v, want failed", out.Status)
	}
	checkDL(t, sys)
}

// TestNoDuplicateDequeueAcrossOps guards the ⟨pid, opSeq⟩ claim: p fails a
// dequeue (crash before claim), then dequeues again successfully; a stale
// pid-only claim scheme would let the recovery of a later op match the
// earlier op's claim.
func TestNoDuplicateDequeueAcrossOps(t *testing.T) {
	sys := runtime.NewSystem(2)
	q := New(sys)
	q.Enq(0, 5)
	q.Enq(0, 6)

	// Op 1 by p=1: claims 5, crashes before persisting, recovers to 5.
	out := q.Deq(1, nvm.CrashAtStep(12))
	if out.Status != runtime.StatusRecovered || out.Resp != 5 {
		t.Fatalf("op1 outcome %+v", out)
	}
	// Op 2 by p=1: crash before its claim CAS. Its target is node 6, but a
	// buggy recovery matching on pid alone could also "find" node 5's old
	// claim. The seq in the claim prevents that: verdict must be fail.
	out = q.Deq(1, nvm.CrashAtStep(11))
	if out.Status != runtime.StatusFailed {
		t.Fatalf("op2 status %v, want failed", out.Status)
	}
	if got := q.PeekAll(); !reflect.DeepEqual(got, []int{6}) {
		t.Fatalf("queue = %v, want [6]", got)
	}
	checkDL(t, sys)
}

func TestInterleavedEnqDeq(t *testing.T) {
	sys := runtime.NewSystem(2)
	q := New(sys)
	q.Enq(0, 1)
	if out := q.Deq(1); out.Resp != 1 {
		t.Fatalf("deq = %d", out.Resp)
	}
	q.Enq(1, 2)
	q.Enq(0, 3)
	if out := q.Deq(0); out.Resp != 2 {
		t.Fatalf("deq = %d", out.Resp)
	}
	if out := q.Deq(1); out.Resp != 3 {
		t.Fatalf("deq = %d", out.Resp)
	}
	checkDL(t, sys)
}

// TestRandomSoloCrashes compares against a model queue; failed operations
// must have no effect, recovered ones exactly their effect.
func TestRandomSoloCrashes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		sys := runtime.NewSystem(1)
		q := New(sys)
		var model []int
		next := 1
		for i := 0; i < 6; i++ {
			var plans []nvm.CrashPlan
			if rng.Intn(2) == 0 {
				plans = append(plans, nvm.CrashAtStep(uint64(1+rng.Intn(12))))
			}
			if rng.Intn(2) == 0 {
				out := q.Enq(0, next, plans...)
				if out.Status.Linearized() {
					model = append(model, next)
				}
				next++
			} else {
				out := q.Deq(0, plans...)
				if out.Status.Linearized() {
					if len(model) == 0 {
						if out.Resp != spec.Empty {
							t.Fatalf("trial %d: deq on empty = %d", trial, out.Resp)
						}
					} else {
						if out.Resp != model[0] {
							t.Fatalf("trial %d: deq = %d, model head %d", trial, out.Resp, model[0])
						}
						model = model[1:]
					}
				}
			}
			got := q.PeekAll()
			want := append([]int(nil), model...)
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("trial %d: queue %v, model %v", trial, got, want)
			}
		}
		checkDL(t, sys)
	}
}

func TestConcurrentStressWithStorms(t *testing.T) {
	const procs = 3
	for round := 0; round < 6; round++ {
		sys := runtime.NewSystem(procs)
		q := New(sys)
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
				rng := rand.New(rand.NewSource(int64(round*13 + pid)))
				for i := 0; i < 5; i++ {
					if rng.Intn(2) == 0 {
						q.Enq(pid, pid*1000+i+1)
					} else {
						q.Deq(pid)
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

// TestExactlyOnceJobProcessing is the motivating application: jobs are
// enqueued once and, thanks to detectability, re-invocation on fail cannot
// duplicate them.
func TestExactlyOnceJobProcessing(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sys := runtime.NewSystem(1)
	q := New(sys)
	const jobs = 25
	for j := 1; j <= jobs; j++ {
		for {
			var plans []nvm.CrashPlan
			if rng.Intn(3) == 0 {
				plans = append(plans, nvm.CrashAtStep(uint64(1+rng.Intn(10))))
			}
			out := q.Enq(0, j, plans...)
			if out.Status.Linearized() {
				break
			}
		}
	}
	var processed []int
	for {
		var plans []nvm.CrashPlan
		if rng.Intn(3) == 0 {
			plans = append(plans, nvm.CrashAtStep(uint64(1+rng.Intn(12))))
		}
		out := q.Deq(0, plans...)
		if !out.Status.Linearized() {
			continue // fail: safe to retry
		}
		if out.Resp == spec.Empty {
			break
		}
		processed = append(processed, out.Resp)
	}
	want := make([]int, jobs)
	for i := range want {
		want[i] = i + 1
	}
	if !reflect.DeepEqual(processed, want) {
		t.Fatalf("processed %v, want %v (jobs lost or duplicated)", processed, want)
	}
}
