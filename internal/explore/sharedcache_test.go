package explore_test

import (
	"testing"
	"time"

	"detectable/internal/explore"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/spec"
)

// rwModelHarness builds an unregistered rw harness over an explicit memory
// model (Section 6 of the paper): the registered "rw" harness uses the
// private-cache model; these variants run the same algorithm over
// shared-cache memory, where a crash reverts unflushed stores — so crash
// decisions between operations matter (execution.crashAnywhere).
func rwModelHarness(model nvm.Model) explore.Harness {
	return explore.Harness{
		Name: "rw@" + model.String(),
		Build: func(procs int) *explore.Instance {
			sys := runtime.NewSystemModel(procs, model)
			reg := rw.NewInt(sys, 0)
			return &explore.Instance{
				Sys: sys, Obj: spec.Register{},
				Run: func(pid int, op spec.Operation) (int, runtime.Status) {
					switch op.Method {
					case spec.MethodWrite:
						out := reg.Write(pid, op.Args[0])
						return out.Resp, out.Status
					default:
						out := reg.Read(pid)
						return out.Resp, out.Status
					}
				},
				Crash: func() { sys.Crash() },
			}
		},
	}
}

// TestSharedCacheModels pins the explorer's crash semantics across memory
// models with the paper's own separation:
//
//   - ModelSharedCacheRaw (no persistency instructions): a crash loses
//     unflushed effects of *completed* operations, so the register is not
//     durably linearizable — the explorer must find a counterexample, and
//     it must replay.
//   - ModelSharedCacheAuto (flush-after-write transformation): correctness
//     is restored — the identical search must come back clean.
func TestSharedCacheModels(t *testing.T) {
	prog := explore.Program{{spec.NewOp(spec.MethodWrite, 1), spec.NewOp(spec.MethodRead)}}
	opt := explore.Options{
		MaxCrashes:     1,
		MaxPreemptions: 1,
		MaxExecutions:  testExecs,
		Budget:         time.Minute,
	}

	raw := rwModelHarness(nvm.ModelSharedCacheRaw)
	res := explore.Run(raw, prog, opt)
	if res.Err != nil {
		t.Fatalf("raw model: explorer error: %v", res.Err)
	}
	if res.Counterexample == nil {
		t.Fatalf("raw shared-cache model: explorer missed the durability violation (%d executions)",
			res.Stats.Executions)
	}
	t.Logf("raw model counterexample after %d executions: %s", res.Stats.Executions, res.Counterexample)
	rr, err := explore.ReplayWith(raw, *res.Counterexample)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Linearizable {
		t.Fatal("raw-model counterexample did not reproduce under ReplayWith")
	}

	auto := rwModelHarness(nvm.ModelSharedCacheAuto)
	res = explore.Run(auto, prog, opt)
	if res.Err != nil {
		t.Fatalf("auto model: explorer error: %v", res.Err)
	}
	if res.Counterexample != nil {
		t.Fatalf("flush-after-write model: false positive:\n%s", res.Counterexample)
	}
	if !res.Complete {
		t.Fatalf("auto model: search did not complete: %+v", res.Stats)
	}
}
