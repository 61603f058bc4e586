package rw

import (
	"testing"
	"testing/quick"

	"detectable/internal/linearize"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// quickOp is one randomly generated register operation with an optional
// crash point.
type quickOp struct {
	Write bool
	Val   uint8
	Crash uint8 // 0 = no crash; otherwise crash before step Crash%18+1
}

func (o quickOp) plan() []nvm.CrashPlan {
	if o.Crash == 0 {
		return nil
	}
	return []nvm.CrashPlan{nvm.CrashAtStep(uint64(o.Crash%18 + 1))}
}

// TestQuickSoloRegisterConsistency: for ANY sequence of solo register
// operations with arbitrary crash points, linearized reads agree with the
// last linearized write, fail verdicts have no effect, and the history
// checks out.
func TestQuickSoloRegisterConsistency(t *testing.T) {
	f := func(ops []quickOp) bool {
		if len(ops) > 9 {
			ops = ops[:9]
		}
		sys := runtime.NewSystem(1)
		reg := NewInt(sys, 0)
		model := 0
		for _, op := range ops {
			if op.Write {
				v := int(op.Val%7) + 1
				out := reg.Write(0, v, op.plan()...)
				if out.Status.Linearized() {
					model = v
				}
				if reg.PeekTriple().Val != model {
					return false
				}
			} else {
				out := reg.Read(0, op.plan()...)
				if out.Status.Linearized() && out.Resp != model {
					return false
				}
			}
		}
		ok, _, err := linearize.CheckLog(spec.Register{}, sys.Log())
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickToggleDiscipline: the private toggle index Tp alternates with
// every linearized write and never otherwise — the discipline the Lemma 1
// proof relies on.
func TestQuickToggleDiscipline(t *testing.T) {
	f := func(ops []quickOp) bool {
		if len(ops) > 9 {
			ops = ops[:9]
		}
		sys := runtime.NewSystem(1)
		reg := NewInt(sys, 0)
		toggle := 0
		for _, op := range ops {
			if !op.Write {
				continue
			}
			out := reg.Write(0, int(op.Val), op.plan()...)
			if out.Status.Linearized() {
				toggle = 1 - toggle
			}
			if reg.PeekT(0) != toggle {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
