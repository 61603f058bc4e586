package explore_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"detectable/internal/explore"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/spec"
)

// safety nets so a regression cannot wedge CI; the asserted bounds complete
// in well under these.
const (
	testBudget = 3 * time.Minute
	testExecs  = 2_000_000
)

// TestBoundedComplete verifies every core object at the PR's stated bound:
// 2 processes × 2 operations each, every crash point (crash budget 1,
// including crashes during recovery re-entries of the interrupted attempt),
// and every schedule with at most 1 preemption — executed literally, since
// finite-bound searches forgo sleep-set pruning. The search must complete
// (not stop on budget), find no counterexample, report no infrastructure
// error, and run exactly the pinned number of executions: the schedule
// space of each object's shipped methods at this bound.
func TestBoundedComplete(t *testing.T) {
	want := map[string]int{"counter": 6802, "maxreg": 624, "queue": 4790,
		"rcas": 1327, "rw": 3620, "shardkv": 3620, "tas": 2184}
	for _, h := range explore.Harnesses() {
		t.Run(h.Name, func(t *testing.T) {
			prog := h.DefaultProgram(2, 2)
			res := explore.Run(h, prog, explore.Options{
				MaxCrashes:     1,
				MaxPreemptions: 1,
				MaxExecutions:  testExecs,
				Budget:         testBudget,
			})
			if res.Err != nil {
				t.Fatalf("explorer error: %v", res.Err)
			}
			if res.Counterexample != nil {
				t.Fatalf("unexpected counterexample:\n%s", res.Counterexample)
			}
			if !res.Complete {
				t.Fatalf("search stopped before completing the bound: %+v", res.Stats)
			}
			if res.Stats.Executions != want[h.Name] {
				t.Fatalf("%d executions, want %d", res.Stats.Executions, want[h.Name])
			}
			t.Logf("%d executions (%d cutoffs, %d sleep skips) in %v",
				res.Stats.Executions, res.Stats.Cutoffs, res.Stats.SleepSkips, res.Elapsed)
		})
	}
}

// TestExhaustiveCrashFree fully exhausts the crash-free schedule space of a
// 2×1 program for every object: iterative deepening runs until a round
// prunes nothing on the preemption bound, so every interleaving has been
// explored up to Mazurkiewicz equivalence.
func TestExhaustiveCrashFree(t *testing.T) {
	for _, h := range explore.Harnesses() {
		t.Run(h.Name, func(t *testing.T) {
			// The counter's inc expands to a read/CAS retry loop, so its
			// schedule space keeps deepening well past where the others
			// exhaust; cap it at bound 3 and assert completeness there
			// (full exhaustion for it is a `check explore -preempt -1` job).
			maxPreempt := -1
			if h.Name == "counter" {
				maxPreempt = 3
			}
			prog := h.DefaultProgram(2, 1)
			res := explore.Run(h, prog, explore.Options{
				MaxCrashes:     0,
				MaxPreemptions: maxPreempt,
				MaxExecutions:  testExecs,
				Budget:         testBudget,
			})
			if res.Err != nil {
				t.Fatalf("explorer error: %v", res.Err)
			}
			if res.Counterexample != nil {
				t.Fatalf("unexpected counterexample:\n%s", res.Counterexample)
			}
			if !res.Complete {
				t.Fatalf("search did not complete: %+v", res.Stats)
			}
			if maxPreempt < 0 && !res.Exhausted {
				t.Fatalf("space not exhausted: %+v", res.Stats)
			}
			t.Logf("explored to preemption bound %d after %d executions in %v (exhausted=%v)",
				res.Stats.Bound, res.Stats.Executions, res.Elapsed, res.Exhausted)
		})
	}
}

// TestSoloCrashSweep exhausts a single-process program under a crash budget
// of 2: every placement of up to two crashes across the operation bodies
// AND their recovery re-entries (a crash during recovery forces a second
// re-entry, the paper's "recover as many times as crashes interrupt it").
func TestSoloCrashSweep(t *testing.T) {
	for _, h := range explore.Harnesses() {
		t.Run(h.Name, func(t *testing.T) {
			prog := h.DefaultProgram(1, 2)
			res := explore.Run(h, prog, explore.Options{
				MaxCrashes:     2,
				MaxPreemptions: -1,
				MaxExecutions:  testExecs,
				Budget:         testBudget,
			})
			if res.Err != nil {
				t.Fatalf("explorer error: %v", res.Err)
			}
			if res.Counterexample != nil {
				t.Fatalf("unexpected counterexample:\n%s", res.Counterexample)
			}
			if !res.Exhausted {
				t.Fatalf("space not exhausted: %+v", res.Stats)
			}
			t.Logf("exhausted after %d executions in %v", res.Stats.Executions, res.Elapsed)
		})
	}
}

// TestAlgorithmScripts runs Algorithms 1 and 2 on hand-picked scripts —
// conflicting and chained CASes, same-value and ABA writes (q's third
// write restores the initial value while p is down), three processes, up
// to three crashes — exhaustively where that is cheap (bound -1) and to a
// preemption bound where it is not. The nightly workflow runs three
// processes with a crash to bound 2. The explorer checks responses only,
// and a write always answers Ack, so every rw process ends with a read:
// without it a write's verdict is never held against the register. Each
// script must first convict the seeded bugs it names, then run clean.
func TestAlgorithmScripts(t *testing.T) {
	c := func(old, new int) spec.Operation { return spec.NewOp(spec.MethodCAS, old, new) }
	w := func(v int) spec.Operation { return spec.NewOp(spec.MethodWrite, v) }
	r := spec.NewOp(spec.MethodRead)
	type ops = []spec.Operation
	rdPersist, skipReset, toggleClear := &rcas.MutantDropRDPersist, &runtime.MutantSkipReset, &rw.MutantSkipToggleClear
	scripts := []struct {
		object, name   string
		prog           explore.Program
		crashes, bound int
		convicts       []*bool
	}{
		{"rcas", "2proc-1op-1crash", explore.Program{ops{c(0, 1)}, ops{c(0, 1)}}, 1, -1, []*bool{rdPersist}},
		{"rcas", "2proc-1op-2crashes", explore.Program{ops{c(0, 1)}, ops{c(0, 1)}}, 2, 1, []*bool{rdPersist}},
		{"rcas", "2proc-conflict-1crash", explore.Program{ops{c(0, 1), c(1, 0)}, ops{c(0, 1)}}, 1, 1, []*bool{rdPersist, skipReset}},
		{"rcas", "2proc-chain-1crash", explore.Program{ops{c(0, 1)}, ops{c(1, 2)}}, 1, -1, []*bool{rdPersist}},
		{"rcas", "3proc-1op-1crash", explore.Program{ops{c(0, 1)}, ops{c(0, 1)}, ops{c(0, 1)}}, 1, 1, []*bool{rdPersist}},
		{"rcas", "3proc-2crashes", explore.Program{ops{c(0, 1)}, ops{c(0, 2)}, ops{c(1, 0)}}, 2, 0, []*bool{rdPersist}},
		{"rcas", "1proc-3ops-3crashes", explore.Program{ops{c(0, 1), c(1, 0), c(0, 1), r}}, 3, -1, []*bool{rdPersist, skipReset}},
		{"rw", "1proc-2ops-2crashes", explore.Program{ops{w(1), w(2), r}}, 2, -1, []*bool{skipReset}},
		{"rw", "2proc-1op-1crash", explore.Program{ops{w(1), r}, ops{w(2), r}}, 1, 1, nil},
		{"rw", "2proc-samevalue-1crash", explore.Program{ops{w(1), r}, ops{w(1), r}}, 1, 1, nil},
		{"rw", "2proc-2+1ops-1crash", explore.Program{ops{w(1), w(2), r}, ops{w(3), r}}, 1, 1, []*bool{skipReset, toggleClear}},
		{"rw", "2proc-aba-1crash", explore.Program{ops{w(5), r}, ops{w(7), w(8), w(0), r}}, 1, 1, []*bool{skipReset, toggleClear}},
		{"rw", "3proc-nocrash", explore.Program{ops{w(1), r}, ops{w(2), r}, ops{w(3), r}}, 0, 1, nil},
	}
	for _, object := range []string{"rcas", "rw"} {
		t.Run(object, func(t *testing.T) {
			for _, tc := range scripts {
				if tc.object != object {
					continue
				}
				t.Run(tc.name, func(t *testing.T) {
					opt := explore.Options{MaxCrashes: tc.crashes, MaxPreemptions: tc.bound, MaxExecutions: testExecs, Budget: testBudget}
					for _, m := range tc.convicts {
						*m = true
						t.Cleanup(func() { *m = false }) // survive a mid-hunt Fatal
						hunt(t, tc.object, tc.prog, opt)
						*m = false
					}
					res := clean(t, tc.object, tc.prog, opt)
					if tc.bound < 0 && !res.Exhausted {
						t.Fatalf("space not exhausted: %+v", res.Stats)
					}
					t.Logf("%d executions to bound %d in %v", res.Stats.Executions, res.Stats.Bound, res.Elapsed)
				})
			}
		})
	}
}

// TestObserveStopIsIncomplete: an Observe that asks to stop ends the run
// incomplete, even when it stops the only schedule there is.
func TestObserveStopIsIncomplete(t *testing.T) {
	h, err := explore.ByName("rw")
	if err != nil {
		t.Fatal(err)
	}
	stopping := explore.Harness{Name: h.Name, Build: func(procs int) *explore.Instance {
		inst := h.Build(procs)
		inst.Observe = func() bool { return true }
		return inst
	}}
	res := explore.Run(stopping, explore.Program{{spec.NewOp(spec.MethodWrite, 1)}}, explore.Options{MaxPreemptions: -1})
	if res.Err != nil || res.Complete || res.Exhausted || res.Stats.Executions != 1 {
		t.Fatalf("observed stop: err %v, complete %v, exhausted %v, %d executions",
			res.Err, res.Complete, res.Exhausted, res.Stats.Executions)
	}
}

// TestReplayDeterminism re-executes the same trace twice and demands
// event-identical histories: an execution is a function of its decisions.
func TestReplayDeterminism(t *testing.T) {
	h, err := explore.ByName("rw")
	if err != nil {
		t.Fatal(err)
	}
	trace := explore.Trace{
		Object:  "rw",
		Procs:   2,
		Program: h.DefaultProgram(2, 2),
		// An empty decision list replays under the deterministic default
		// policy; the point is that two replays agree event-for-event.
	}
	a, err := explore.Replay(trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := explore.Replay(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("replays diverged:\n%v\nvs\n%v", a.Events, b.Events)
	}
	if !a.Linearizable || !b.Linearizable {
		t.Fatalf("default-policy replay not linearizable: %+v", a.Report)
	}
}

// TestTraceRoundTrip pins the JSON trace format: marshal, unmarshal, replay.
func TestTraceRoundTrip(t *testing.T) {
	h, err := explore.ByName("queue")
	if err != nil {
		t.Fatal(err)
	}
	trace := explore.Trace{
		Object:  "queue",
		Procs:   2,
		Program: h.DefaultProgram(2, 2),
		Note:    "round-trip fixture",
	}
	b, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	back, err := explore.UnmarshalTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, back) {
		t.Fatalf("round trip changed the trace:\n%+v\nvs\n%+v", trace, back)
	}
	if _, err := explore.Replay(back); err != nil {
		t.Fatalf("replaying round-tripped trace: %v", err)
	}
}

// TestReplayRejectsBadTraces: decisions naming unknown processes or unknown
// objects are errors, not crashes.
func TestReplayRejectsBadTraces(t *testing.T) {
	if _, err := explore.Replay(explore.Trace{Object: "no-such-object", Procs: 1, Program: explore.Program{nil}}); err == nil {
		t.Fatal("unknown object accepted")
	}
	h, _ := explore.ByName("rw")
	bad := explore.Trace{
		Object:    "rw",
		Procs:     1,
		Program:   h.DefaultProgram(1, 1),
		Decisions: []explore.Decision{{Pid: 7}},
	}
	if _, err := explore.Replay(bad); err == nil {
		t.Fatal("decision for unparked process accepted")
	}
}

// TestProgramShapes sanity-checks the default program generators.
func TestProgramShapes(t *testing.T) {
	for _, h := range explore.Harnesses() {
		prog := h.DefaultProgram(3, 2)
		if len(prog) != 3 {
			t.Fatalf("%s: %d procs", h.Name, len(prog))
		}
		n := 0
		for _, ops := range prog {
			for _, op := range ops {
				if op.Method == "" {
					t.Fatalf("%s: empty method", h.Name)
				}
				n++
			}
		}
		if n != 6 {
			t.Fatalf("%s: %d ops", h.Name, n)
		}
	}
}

// TestRunRejectsOversizedPrograms: histories beyond the checker's 63-op
// limit surface as a configuration error, not a panic.
func TestRunRejectsOversizedPrograms(t *testing.T) {
	h, _ := explore.ByName("rw")
	big := make(explore.Program, 2)
	for p := range big {
		for k := 0; k < 40; k++ {
			big[p] = append(big[p], spec.NewOp(spec.MethodWrite, k+1))
		}
	}
	res := explore.Run(h, big, explore.Options{MaxPreemptions: 0, MaxExecutions: 4})
	if res.Err == nil {
		t.Fatal("expected an oversized-program error")
	}
}

// TestRCASIdentityCASLeavesOthersAlone: a Cas(0, 0) that succeeds
// concurrently with a Cas(0, 1) must not make the latter fail while C's
// value stays 0 throughout. Algorithm 2 as printed flips the identity
// CAS's own bit of vec, so the other CAS's swap on ⟨val, vec⟩ failed on
// the vector alone, and no linearization explains its false; an identity
// CAS writes nothing.
func TestRCASIdentityCASLeavesOthersAlone(t *testing.T) {
	h, err := explore.ByName("rcas")
	if err != nil {
		t.Fatal(err)
	}
	prog := explore.Program{{spec.NewOp(spec.MethodCAS, 0, 1)}, {spec.NewOp(spec.MethodCAS, 0, 0)}}
	res := explore.Run(h, prog, explore.Options{
		MaxCrashes:     1,
		MaxPreemptions: -1,
		MaxExecutions:  testExecs,
		Budget:         testBudget,
	})
	if res.Err != nil {
		t.Fatalf("explorer error: %v", res.Err)
	}
	if res.Counterexample != nil {
		t.Fatalf("counterexample after %d executions:\n%s", res.Stats.Executions, res.Counterexample)
	}
	if !res.Exhausted {
		t.Fatalf("space not exhausted: %+v", res.Stats)
	}
	t.Logf("exhausted after %d executions in %v", res.Stats.Executions, res.Elapsed)
}
