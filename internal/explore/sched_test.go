package explore_test

import (
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"detectable/internal/explore"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// TestNoProcessOutlivesItsExecution ends executions early in every way the
// explorer can and checks that each process coroutine is gone afterwards:
// the goroutine count returns to what it was before the run.
func TestNoProcessOutlivesItsExecution(t *testing.T) {
	rw, err := explore.ByName("rw")
	if err != nil {
		t.Fatal(err)
	}
	prog := rw.DefaultProgram(2, 2)
	bounded := explore.Options{MaxCrashes: 1, MaxPreemptions: 1}
	observing := explore.Harness{Name: rw.Name, Build: func(procs int) *explore.Instance {
		inst := rw.Build(procs)
		inst.Observe = func() bool { return true }
		return inst
	}}
	panicking := explore.Harness{Name: "panicking", Build: func(procs int) *explore.Instance {
		sys := runtime.NewSystem(procs)
		return &explore.Instance{Sys: sys, Obj: spec.Register{}, Crash: sys.Crash,
			Run: func(int, spec.Operation) (int, runtime.Status) { panic("boom") }}
	}}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"execution cap", func(t *testing.T) {
			res := explore.Run(rw, prog, explore.Options{MaxCrashes: 1, MaxPreemptions: 1, MaxExecutions: 5})
			if res.Err != nil || res.Complete || res.Stats.Executions != 5 {
				t.Fatalf("err %v, complete %v, %d executions", res.Err, res.Complete, res.Stats.Executions)
			}
		}},
		{"budget", func(t *testing.T) {
			res := explore.Run(rw, prog, explore.Options{MaxCrashes: 1, MaxPreemptions: 1, Budget: time.Nanosecond})
			if res.Err != nil || res.Complete {
				t.Fatalf("err %v, complete %v", res.Err, res.Complete)
			}
		}},
		{"step cap", func(t *testing.T) {
			res := explore.Run(rw, prog, explore.Options{MaxCrashes: 1, MaxPreemptions: 1, StepCap: 3})
			if res.Err == nil || !strings.Contains(res.Err.Error(), "3-step cap") {
				t.Fatalf("err %v, want the step cap", res.Err)
			}
		}},
		{"observe stop", func(t *testing.T) {
			res := explore.Run(observing, prog, bounded)
			if res.Err != nil || res.Complete || res.Stats.Executions != 1 {
				t.Fatalf("err %v, complete %v, %d executions", res.Err, res.Complete, res.Stats.Executions)
			}
		}},
		{"sleep-set cutoff", func(t *testing.T) {
			rcas, err := explore.ByName("rcas")
			if err != nil {
				t.Fatal(err)
			}
			res := explore.Run(rcas, rcas.DefaultProgram(2, 1), explore.Options{MaxCrashes: 1, MaxPreemptions: -1})
			if res.Err != nil || !res.Exhausted || res.Stats.Cutoffs == 0 {
				t.Fatalf("err %v, exhausted %v, %d cutoffs", res.Err, res.Exhausted, res.Stats.Cutoffs)
			}
		}},
		{"replay past the end", func(t *testing.T) {
			tr := explore.Trace{Object: rw.Name, Procs: 1, Program: rw.DefaultProgram(1, 2), Decisions: make([]explore.Decision, 1000)}
			if _, err := explore.ReplayWith(rw, tr); err == nil || !strings.Contains(err.Error(), "past the end") {
				t.Fatalf("err %v, want a decision past the end", err)
			}
		}},
		{"replay of a finished process", func(t *testing.T) {
			tr := explore.Trace{Object: rw.Name, Procs: 2, Program: prog, Decisions: make([]explore.Decision, 1000)}
			if _, err := explore.ReplayWith(rw, tr); err == nil || !strings.Contains(err.Error(), "not parked") {
				t.Fatalf("err %v, want a decision for a process that is not parked", err)
			}
		}},
		{"process panic", func(t *testing.T) {
			res := explore.Run(panicking, explore.Program{{spec.NewOp(spec.MethodRead)}, {spec.NewOp(spec.MethodRead)}}, bounded)
			if res.Err == nil || !strings.Contains(res.Err.Error(), "explore: process 0 panicked: boom") {
				t.Fatalf("err %v, want process 0's panic", res.Err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			tc.run(t)
			for deadline := time.Now().Add(time.Second); goruntime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before", goruntime.NumGoroutine(), before)
				}
			}
		})
	}
}
