package explore_test

import (
	"testing"
	"time"

	"detectable/internal/explore"
	"detectable/internal/queue"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/spec"
)

// The mutation smoke-check: each test seeds one known detectability bug
// (dropping exactly one persist/clear step whose necessity the paper
// proves), asserts the explorer produces a counterexample for it, asserts
// the counterexample replays deterministically to the same violation, and
// then asserts the unmutated algorithm passes the identical search — so the
// checker itself is tested in both directions.

// hunt runs the explorer and demands a counterexample that replays.
func hunt(t *testing.T, object string, prog explore.Program, opt explore.Options) *explore.Trace {
	t.Helper()
	h, err := explore.ByName(object)
	if err != nil {
		t.Fatal(err)
	}
	res := explore.Run(h, prog, opt)
	if res.Err != nil {
		t.Fatalf("explorer error: %v", res.Err)
	}
	if res.Counterexample == nil {
		t.Fatalf("explorer missed the seeded %s bug (%d executions, complete=%v)",
			object, res.Stats.Executions, res.Complete)
	}
	t.Logf("counterexample after %d executions: %s (%s)",
		res.Stats.Executions, res.Counterexample, res.Counterexample.Note)
	rr, err := explore.Replay(*res.Counterexample)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Linearizable {
		t.Fatalf("counterexample did not reproduce under Replay")
	}
	return res.Counterexample
}

// clean re-runs the identical search on the healthy algorithm and demands
// silence.
func clean(t *testing.T, object string, prog explore.Program, opt explore.Options) explore.Result {
	t.Helper()
	h, err := explore.ByName(object)
	if err != nil {
		t.Fatal(err)
	}
	res := explore.Run(h, prog, opt)
	if res.Err != nil {
		t.Fatalf("explorer error on healthy object: %v", res.Err)
	}
	if res.Counterexample != nil {
		t.Fatalf("false positive on healthy object:\n%s", res.Counterexample)
	}
	if !res.Complete {
		t.Fatalf("healthy search did not complete: %+v", res.Stats)
	}
	return res
}

var mutOpt = explore.Options{
	MaxCrashes:     1,
	MaxPreemptions: 1,
	MaxExecutions:  testExecs,
	Budget:         time.Minute,
}

// TestMutantRCASDropRDPersist: without line 33's persist of RD_p, a crash
// between the successful CAS and the response persist makes recovery
// report fail for a CAS whose new value is visible — the subsequent read
// returns a value no linearization of the surviving operations explains.
func TestMutantRCASDropRDPersist(t *testing.T) {
	prog := explore.Program{{spec.NewOp(spec.MethodCAS, 0, 1), spec.NewOp(spec.MethodRead)}}

	rcas.MutantDropRDPersist = true
	t.Cleanup(func() { rcas.MutantDropRDPersist = false }) // survive a mid-hunt Fatal
	cx := hunt(t, "rcas", prog, mutOpt)
	rcas.MutantDropRDPersist = false

	// The same trace on the healthy algorithm is explainable.
	rr, err := explore.Replay(*cx)
	if err != nil {
		t.Fatalf("replaying on healthy rcas: %v", err)
	}
	if !rr.Linearizable {
		t.Fatalf("healthy rcas fails the mutant's schedule: %+v", rr.Report)
	}
	clean(t, "rcas", prog, mutOpt)
}

// TestMutantRWSkipToggleClear: without line 2's toggle-bit clear, the
// register loses its ABA protection. After two completed writes by the
// other process raised both toggle arrays, a crashed write that never
// reached R finds the stale bit raised and recovery wrongly claims the
// write was linearized — the writer's own subsequent read then observes a
// value that contradicts the claimed write.
func TestMutantRWSkipToggleClear(t *testing.T) {
	prog := explore.Program{
		{spec.NewOp(spec.MethodWrite, 1), spec.NewOp(spec.MethodRead)},
		{spec.NewOp(spec.MethodWrite, 2), spec.NewOp(spec.MethodWrite, 3)},
	}

	rw.MutantSkipToggleClear = true
	t.Cleanup(func() { rw.MutantSkipToggleClear = false }) // survive a mid-hunt Fatal
	hunt(t, "rw", prog, mutOpt)
	rw.MutantSkipToggleClear = false

	clean(t, "rw", prog, mutOpt)
}

// TestMutantQueueDropDeqTargetPersist: without the announced dequeue
// target, a crash after the claim CAS leaves recovery unable to see its own
// claim, so it returns fail for a dequeue that removed the head — the value
// vanishes, and the follow-up dequeue's Empty cannot be linearized.
func TestMutantQueueDropDeqTargetPersist(t *testing.T) {
	prog := explore.Program{{
		spec.NewOp(spec.MethodEnq, 1),
		spec.NewOp(spec.MethodDeq),
		spec.NewOp(spec.MethodDeq),
	}}

	queue.MutantDropDeqTargetPersist = true
	t.Cleanup(func() { queue.MutantDropDeqTargetPersist = false }) // survive a mid-hunt Fatal
	hunt(t, "queue", prog, mutOpt)
	queue.MutantDropDeqTargetPersist = false

	clean(t, "queue", prog, mutOpt)
}

// TestMutantSkipResetConvicted is Theorem 2's ablation as bounds
// configspace -ablate runs it: with Announce leaving Resp and CP as the
// previous operation left them, a crash early in the second mutator makes
// recovery answer from the first one's leftovers, which the trailing read
// contradicts. The explorer checks responses, so without that read neither
// object is convicted. With the reset in place, every schedule of one
// crash runs clean.
func TestMutantSkipResetConvicted(t *testing.T) {
	opt := explore.Options{MaxCrashes: 1, MaxPreemptions: -1, MaxExecutions: testExecs, Budget: time.Minute}
	for _, tc := range []struct {
		object string
		prog   explore.Program
	}{
		{"rcas", explore.Program{{spec.NewOp(spec.MethodCAS, 0, 1), spec.NewOp(spec.MethodCAS, 1, 0), spec.NewOp(spec.MethodRead)}}},
		{"rw", explore.Program{{spec.NewOp(spec.MethodWrite, 1), spec.NewOp(spec.MethodWrite, 2), spec.NewOp(spec.MethodRead)}}},
	} {
		t.Run(tc.object, func(t *testing.T) {
			t.Run("mutant", func(t *testing.T) {
				runtime.MutantSkipReset = true
				t.Cleanup(func() { runtime.MutantSkipReset = false })
				hunt(t, tc.object, tc.prog, opt)
			})
			t.Run("clean", func(t *testing.T) {
				if res := clean(t, tc.object, tc.prog, opt); !res.Exhausted {
					t.Fatalf("healthy search not exhausted: %+v", res.Stats)
				}
			})
		})
	}
}

// TestMutantRCASIdentityFlip: Algorithm 2 as printed runs a Cas(0, 0)
// through the swap, flipping its bit of vec, so a concurrent Cas(0, 1)
// fails on the vector alone while C holds 0 throughout — crash-free, on
// TestRCASIdentityCASLeavesOthersAlone's program.
func TestMutantRCASIdentityFlip(t *testing.T) {
	prog := explore.Program{{spec.NewOp(spec.MethodCAS, 0, 1)}, {spec.NewOp(spec.MethodCAS, 0, 0)}}
	opt := explore.Options{MaxPreemptions: -1, MaxExecutions: testExecs, Budget: time.Minute}

	rcas.MutantIdentityFlip = true
	t.Cleanup(func() { rcas.MutantIdentityFlip = false }) // survive a mid-hunt Fatal
	hunt(t, "rcas", prog, opt)
	rcas.MutantIdentityFlip = false

	clean(t, "rcas", prog, opt)
}

// TestConfigCount is Theorem 1 on rcas: N processes reach exactly 2^N
// memory-distinct configurations, one more than the bound's 2^N − 1.
func TestConfigCount(t *testing.T) {
	for n := 1; n <= 4; n++ {
		got, err := explore.ConfigCount(n)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if got != 1<<n {
			t.Fatalf("N=%d: %d configurations, want %d", n, got, 1<<n)
		}
	}
}

// TestSleepPruningPreservesBugs validates the sleep-set pruning against an
// unpruned search: the seeded rcas bug must be found both ways. Sleep sets
// only engage under unbounded deepening (MaxPreemptions -1), so both runs
// use it.
func TestSleepPruningPreservesBugs(t *testing.T) {
	prog := explore.Program{{spec.NewOp(spec.MethodCAS, 0, 1), spec.NewOp(spec.MethodRead)}}
	rcas.MutantDropRDPersist = true
	defer func() { rcas.MutantDropRDPersist = false }()

	withSleep := mutOpt
	withSleep.MaxPreemptions = -1
	hunt(t, "rcas", prog, withSleep)

	noSleep := withSleep
	noSleep.DisableSleep = true
	hunt(t, "rcas", prog, noSleep)
}
