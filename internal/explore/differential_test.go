package explore_test

import (
	"math"
	"reflect"
	"testing"

	"detectable/internal/explore"
	"detectable/internal/linearize"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// TestDifferentialFastVsArmed pins that arming a plan changes nothing but
// the hooks: a primitive has one body, so the same operation sequence must
// behave identically with a nil plan and with a never-firing plan consulted
// before every primitive. Each harness runs a deterministic round-robin
// sequence over 3 processes on two fresh instances, one armed (Sys.Arm)
// and one not, and the test demands identical per-operation responses and
// statuses, an event-identical history, and equal linearizability verdicts
// and detectability reports.
func TestDifferentialFastVsArmed(t *testing.T) {
	for _, h := range explore.Harnesses() {
		t.Run(h.Name, func(t *testing.T) {
			const procs, ops = 3, 4
			prog := h.DefaultProgram(procs, ops)
			fast := h.Build(procs)
			armed := h.Build(procs)
			for p := 0; p < procs; p++ {
				armed.Sys.Arm(p, nvm.CrashAtStep(math.MaxUint64))
			}
			for k := 0; k < ops; k++ {
				for p := 0; p < procs; p++ {
					if k >= len(prog[p]) {
						continue
					}
					op := prog[p][k]
					fResp, fSt := fast.Run(p, op)
					aResp, aSt := armed.Run(p, op)
					if fResp != aResp || fSt != aSt {
						t.Fatalf("p%d %s diverged: fast (%d, %s) vs armed (%d, %s)",
							p, op, fResp, fSt, aResp, aSt)
					}
					if fSt != runtime.StatusOK {
						t.Fatalf("p%d %s: crash-free run reported %s", p, op, fSt)
					}
				}
			}
			fe, ae := fast.Sys.Log().Events(), armed.Sys.Log().Events()
			if !reflect.DeepEqual(fe, ae) {
				t.Fatalf("histories diverged:\nfast:  %v\narmed: %v", fe, ae)
			}
			fOK, _, fRep, err := linearize.ExplainEvents(fast.Obj, fe)
			if err != nil {
				t.Fatal(err)
			}
			aOK, _, aRep, err := linearize.ExplainEvents(armed.Obj, ae)
			if err != nil {
				t.Fatal(err)
			}
			if fOK != aOK || fRep != aRep {
				t.Fatalf("verdicts diverged: fast (%v, %+v) vs armed (%v, %+v)", fOK, fRep, aOK, aRep)
			}
			if !fOK {
				t.Fatalf("sequential history not linearizable: %+v", fRep)
			}
		})
	}
}
