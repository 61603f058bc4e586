package kv

import (
	"fmt"
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// The registers of a store share one RD_p and one announcement pair per
// process (rw.Procs). The sweeps below put a process's completed operation
// on key A in front of a crashing operation on key B, so that everything
// recovery reads from the per-process state is A's leftovers unless the
// operation on B overwrote it first.

const (
	crossA, crossB = "A", "B"
	crossValA      = 77 // what p's operations on A leave in Resp / RD_p
	crossOld       = 5  // B's value before the crashing operation
	crossNew       = 9
)

// crossOps are the crashing operations on B; check reports a disagreement
// between the verdict and B's value.
var crossOps = []struct {
	name string
	run  func(s *Store, plan nvm.CrashPlan) runtime.Outcome[int]
	want int // B's value when the operation linearized
	read bool
}{
	{name: "put", run: func(s *Store, p nvm.CrashPlan) runtime.Outcome[int] { return s.Put(0, crossB, crossNew, p) }, want: crossNew},
	{name: "del", run: func(s *Store, p nvm.CrashPlan) runtime.Outcome[int] { return s.Del(0, crossB, p) }, want: 0},
	{name: "get", run: func(s *Store, p nvm.CrashPlan) runtime.Outcome[int] { return s.Get(0, crossB, p) }, want: crossOld, read: true},
}

// crossPriors are what process 0 completes on A first.
var crossPriors = []struct {
	name string
	run  func(s *Store)
}{
	{"after-put", func(s *Store) { s.Put(0, crossA, crossValA) }},
	{"after-get", func(s *Store) { s.Put(1, crossA, crossValA); s.Get(0, crossA) }},
	{"after-recovered-put", func(s *Store) { s.Put(0, crossA, crossValA, nvm.CrashAtStep(12)) }},
}

// crossSweep runs every (prior, op, crash step, crasher) combination and
// returns the disagreements it found and whether every sweep reached its
// crash-free end having seen a crash verdict.
func crossSweep(t *testing.T) (violations []string) {
	t.Helper()
	for _, prior := range crossPriors {
		for _, op := range crossOps {
			// self: p's own plan crashes before its step-th primitive.
			// other: at that step another process's plan crashes the system
			// (pid 1, mid-Put on a third key), and p dies at the primitive.
			for _, crasher := range []string{"self", "other"} {
				sawCrash := false
				for step := uint64(1); ; step++ {
					if step > sweepLimit {
						t.Fatalf("%s/%s/%s: no crash-free run within %d steps", prior.name, op.name, crasher, sweepLimit)
					}
					s := New(runtime.NewSystem(2))
					s.Put(1, crossB, crossOld)
					prior.run(s)
					if got := s.Peek(crossA); got != crossValA {
						t.Fatalf("%s: A = %d, want %d", prior.name, got, crossValA)
					}

					plan := nvm.CrashAtStep(step)
					if crasher == "other" {
						plan = &nvm.StepHook{Step: step, Fn: func() { s.Put(1, "C", 1, nvm.CrashAtStep(4)) }}
					}
					out := op.run(s, plan)
					got := s.Peek(crossB)
					where := fmt.Sprintf("%s/%s/%s step %d: verdict %v (resp %d), B = %d", prior.name, op.name, crasher, step, out.Status, out.Resp, got)
					switch {
					case op.read && out.Status.Linearized():
						if out.Resp != crossOld || got != crossOld {
							violations = append(violations, where)
						}
					case out.Status.Linearized():
						if got != op.want {
							violations = append(violations, where)
						}
					case out.Status == runtime.StatusFailed || out.Status == runtime.StatusNotInvoked:
						if got != crossOld {
							violations = append(violations, where)
						}
					default:
						t.Fatalf("%s: indefinite outcome", where)
					}
					if s.Peek(crossA) != crossValA {
						violations = append(violations, where+": A disturbed")
					}
					if out.Status == runtime.StatusOK {
						if !sawCrash {
							t.Fatalf("%s/%s/%s: sweep ended at step %d without a crash verdict", prior.name, op.name, crasher, step)
						}
						break
					}
					sawCrash = true
				}
			}
		}
	}
	return violations
}

// TestCrossRegisterCrashSweep: after completing an operation on A, process
// 0 crashes before every step of a Put, Del and Get on B — by its own plan
// and by another process's — and the verdict always agrees with B: nothing
// A's operation left in RD_p or Ann_p is ever acted on.
func TestCrossRegisterCrashSweep(t *testing.T) {
	for _, v := range crossSweep(t) {
		t.Error(v)
	}
}

// TestCrossRegisterSweepConvictsSkippedAnnounceReset: the sweep must be
// able to fail. With the caller-side reset of Resp and CP skipped, the
// shared announcement still holds A's response and checkpoint when B's
// operation crashes early, and recovery answers from them.
func TestCrossRegisterSweepConvictsSkippedAnnounceReset(t *testing.T) {
	runtime.MutantSkipReset = true
	defer func() { runtime.MutantSkipReset = false }()
	violations := crossSweep(t)
	if len(violations) == 0 {
		t.Fatalf("sweep found no violation under MutantSkipReset")
	}
	t.Logf("convicted: %d disagreements, first: %s", len(violations), violations[0])
}
