package rcas

import (
	"testing"
	"testing/quick"

	"detectable/internal/linearize"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// quickOp is one randomly generated CAS invocation with an optional crash
// point, consumed by the property-based tests below.
type quickOp struct {
	Old, New uint8
	Crash    uint8 // 0 = no crash; otherwise crash before step Crash%12+1
}

func (o quickOp) plan() []nvm.CrashPlan {
	if o.Crash == 0 {
		return nil
	}
	return []nvm.CrashPlan{nvm.CrashAtStep(uint64(o.Crash%12 + 1))}
}

// TestQuickSoloCASConsistency: for ANY sequence of CAS invocations with
// arbitrary crash points, (a) every linearized response agrees with a
// sequential model, (b) every fail verdict leaves the object unchanged,
// and (c) the recorded history passes the durable-linearizability checker.
func TestQuickSoloCASConsistency(t *testing.T) {
	f := func(ops []quickOp) bool {
		if len(ops) > 10 {
			ops = ops[:10]
		}
		sys := runtime.NewSystem(1)
		o := NewInt(sys, 0)
		model := 0
		for _, op := range ops {
			old, new := int(op.Old%3), int(op.New%3)
			out := o.Cas(0, old, new, op.plan()...)
			if out.Status.Linearized() {
				if out.Resp != (model == old) {
					return false
				}
				if out.Resp {
					model = new
				}
			}
			if o.PeekPair().Val != model {
				return false
			}
		}
		ok, _, err := linearize.CheckLog(spec.CAS{}, sys.Log())
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVecFlipInvariant: the Lemma 2 invariant — vec[p] flips exactly
// on p's successful CAS with old ≠ new (a Cas(x, x) writes nothing) —
// holds along any generated execution.
func TestQuickVecFlipInvariant(t *testing.T) {
	f := func(ops []quickOp) bool {
		if len(ops) > 10 {
			ops = ops[:10]
		}
		sys := runtime.NewSystem(1)
		o := NewInt(sys, 0)
		bit := false
		for _, op := range ops {
			old, new := int(op.Old%3), int(op.New%3)
			out := o.Cas(0, old, new, op.plan()...)
			if out.Status.Linearized() && out.Resp && old != new {
				bit = !bit
			}
			if o.PeekPair().Bit(0) != bit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
