package model

// Cross-validation: the explicit step machines and the natural goroutine
// implementations (internal/rcas, internal/rw) encode the same algorithms.
// For every solo execution with a crash injected after each possible
// prefix of body primitives, both encodings must produce the same
// recovery verdict and the same final shared-memory state.
//
// The step correspondence is exact: the natural implementations perform a
// 3-primitive announcement followed by one primitive per pseudo-code line,
// and the machines perform one invocation transition followed by one
// transition per pseudo-code line.

import (
	"fmt"
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
)

// runMachineSoloCAS executes a single-process CAS machine, crashing after
// crashAfter body transitions (0 = before any), then recovers to
// completion. It returns the verdict ("true", "false" or "fail") and the
// final shared state.
func runMachineSoloCAS(t *testing.T, init int8, op OpCAS, crashAfter int) (string, int8, uint8) {
	t.Helper()
	m := &CASMachine{N: 1, Scripts: [][]OpCAS{{op}}, InitVal: init, MaxCrashes: 1}
	c := m.Init()
	step := func() {
		ns, ok, err := m.step(c, 0)
		if err != nil || !ok {
			t.Fatalf("machine step failed: ok=%v err=%v (pc=%d)", ok, err, c.PC[0])
		}
		c = ns
	}
	step() // invocation
	for i := 0; i < crashAfter && c.InOp[0]; i++ {
		step()
	}
	if c.InOp[0] {
		c = m.crash(c)
		for c.InOp[0] {
			step()
		}
	}
	switch c.AnnRes[0] {
	case resTrue:
		return "true", c.Val, c.Vec
	case resFalse:
		return "false", c.Val, c.Vec
	default:
		return "fail", c.Val, c.Vec
	}
}

// runNaturalSoloCAS executes the same scenario on the natural
// implementation; the crash plan fires before body primitive crashAfter+1,
// i.e. after crashAfter body primitives (the announcement adds 3).
func runNaturalSoloCAS(t *testing.T, init int, op OpCAS, crashAfter int) (string, int, uint64) {
	t.Helper()
	sys := runtime.NewSystem(1)
	o := rcas.NewInt(sys, init)
	out := o.Cas(0, int(op.Old), int(op.New), nvm.CrashAtStep(uint64(3+crashAfter+1)))
	pair := o.PeekPair()
	switch {
	case out.Status == runtime.StatusFailed:
		return "fail", pair.Val, pair.Vec
	case out.Resp:
		return "true", pair.Val, pair.Vec
	default:
		return "false", pair.Val, pair.Vec
	}
}

func TestCrossValidationCAS(t *testing.T) {
	scenarios := []struct {
		init int8
		op   OpCAS
	}{
		{0, OpCAS{Old: 0, New: 1}}, // success path
		{2, OpCAS{Old: 0, New: 1}}, // value-mismatch path
		{1, OpCAS{Old: 1, New: 1}}, // identity: line 30's path, no flip
	}
	for _, sc := range scenarios {
		// Body length ≤ 5 primitives; sweep past the end to cover the
		// crash-free case too.
		for crashAfter := 0; crashAfter <= 6; crashAfter++ {
			name := fmt.Sprintf("init=%d op=(%d,%d) crashAfter=%d", sc.init, sc.op.Old, sc.op.New, crashAfter)
			mv, mval, mvec := runMachineSoloCAS(t, sc.init, sc.op, crashAfter)
			nv, nval, nvec := runNaturalSoloCAS(t, int(sc.init), sc.op, crashAfter)
			if mv != nv {
				t.Errorf("%s: machine verdict %s, natural verdict %s", name, mv, nv)
			}
			if int(mval) != nval || uint64(mvec) != nvec {
				t.Errorf("%s: machine state (%d,%b), natural state (%d,%b)", name, mval, mvec, nval, nvec)
			}
		}
	}
}

// runMachineSoloRW is the analogous driver for Algorithm 1.
func runMachineSoloRW(t *testing.T, init int8, val int8, crashAfter int) (string, int8, int8, int8) {
	t.Helper()
	m := &RWMachine{N: 1, Scripts: [][]int8{{val}}, InitVal: init, MaxCrashes: 1}
	c := m.Init()
	step := func() {
		ns, ok, err := m.step(c, 0)
		if err != nil || !ok {
			t.Fatalf("machine step failed: ok=%v err=%v (pc=%d)", ok, err, c.PC[0])
		}
		c = ns
	}
	step() // invocation
	for i := 0; i < crashAfter && c.InOp[0]; i++ {
		step()
	}
	if c.InOp[0] {
		c = m.crash(c)
		for c.InOp[0] {
			step()
		}
	}
	verdict := "fail"
	if c.AnnRes[0] != 0 {
		verdict = "ack"
	}
	return verdict, c.RVal, c.RQ, c.RT
}

func runNaturalSoloRW(t *testing.T, init, val, crashAfter int) (string, int, int, int) {
	t.Helper()
	sys := runtime.NewSystem(1)
	reg := rw.NewInt(sys, init)
	out := reg.Write(0, val, nvm.CrashAtStep(uint64(3+crashAfter+1)))
	tr := reg.PeekTriple()
	if out.Status == runtime.StatusFailed {
		return "fail", tr.Val, int(tr.Q), int(tr.Toggle)
	}
	return "ack", tr.Val, int(tr.Q), int(tr.Toggle)
}

func TestCrossValidationRW(t *testing.T) {
	// Solo write body for N=1: lines 1-8 (8 primitives), one toggle store,
	// Tp, result = 11 primitives. Sweep past the end.
	for _, val := range []int8{1, 9} {
		for crashAfter := 0; crashAfter <= 12; crashAfter++ {
			name := fmt.Sprintf("val=%d crashAfter=%d", val, crashAfter)
			mv, mval, mq, mt := runMachineSoloRW(t, 0, val, crashAfter)
			nv, nval, nq, nt := runNaturalSoloRW(t, 0, int(val), crashAfter)
			if mv != nv {
				t.Errorf("%s: machine verdict %s, natural verdict %s", name, mv, nv)
			}
			if int(mval) != nval || int(mq) != nq || int(mt) != nt {
				t.Errorf("%s: machine R=(%d,%d,%d), natural R=(%d,%d,%d)",
					name, mval, mq, mt, nval, nq, nt)
			}
		}
	}
}

// TestCrossValidationRWSameValueABA drives both encodings through a
// two-process schedule: p crashes around its store while q completes one
// write of the same value. The machine explores all interleavings including
// this one (TestRWExhaustiveDetectability); here we pin the natural
// implementation's verdicts for the two boundary steps and check the
// machine agrees under the matching schedule.
func TestCrossValidationRWSameValueABA(t *testing.T) {
	// Natural: crash before line 7 (step 10), q writes the initial value in
	// between → fail.
	sys := runtime.NewSystem(2)
	reg := rw.NewInt(sys, 0)
	hook := &nvm.StepHook{
		Step: 10,
		Fn:   func() { reg.Write(0, 0) },
	}
	out := reg.Write(1, 5, nvm.Plans{hook, nvm.CrashAtStep(10)})
	if out.Status != runtime.StatusFailed {
		t.Fatalf("natural verdict %v, want failed", out.Status)
	}

	// Machine: p1 runs 6 body transitions (lines 1-6), then p0 completes a
	// full write of value 0, then crash, then p1 recovers solo.
	m := &RWMachine{N: 2, Scripts: [][]int8{{0}, {5}}, MaxCrashes: 1}
	c := m.Init()
	stepP := func(p int) {
		ns, ok, err := m.step(c, p)
		if err != nil || !ok {
			t.Fatalf("machine step p%d failed: ok=%v err=%v (pc=%d)", p, ok, err, c.PC[p])
		}
		c = ns
	}
	stepP(1) // invoke p1
	for i := 0; i < 6; i++ {
		stepP(1) // p1 through line 6 (CP := 1), about to store R
	}
	stepP(0) // invoke p0
	for c.InOp[0] {
		stepP(0) // p0's full write of value 0
	}
	c = m.crash(c)
	for c.InOp[1] {
		stepP(1) // p1 recovers solo
	}
	if c.AnnRes[1] != 0 {
		t.Fatal("machine verdict ack, natural verdict fail — encodings diverge")
	}
}
