// Package maxreg implements Algorithm 3 of the paper: a recoverable,
// detectable max register that uses NO auxiliary state.
//
// The max register is the paper's separating example. Theorem 2 proves
// that detectable implementations of *doubly-perturbing* objects must be
// handed auxiliary state (checkpoint resets or operation identifiers) from
// outside each invocation. Lemma 4 shows a max register is not doubly
// perturbing — once WriteMax(v) is linearized, a second invocation of it
// can never change any other operation's response — and this algorithm
// exploits exactly that: its recovery functions simply re-invoke the
// operation. No caller-side announcement, no checkpoint, no operation
// identifiers; re-execution is harmless because the object is monotone.
//
// State: an integer array MR[N], one entry per process. WriteMax(val) by p
// raises MR[p] to val if needed. Read repeatedly collects MR until two
// consecutive collects agree (a "double collect", valid snapshot) and
// returns the maximum.
package maxreg

import (
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// MaxRegister is an N-process recoverable max register. All exported
// methods are safe for concurrent use by distinct processes; a single
// process must not run two operations concurrently.
type MaxRegister struct {
	sys *runtime.System
	n   int
	// mr[p] is the largest value process p has written; the register's
	// value is the maximum over all entries.
	mr []nvm.CASRegister[int]
	// resp[p] persists read responses (line 54 of the pseudo-code). It is
	// written by the operation itself, never reset from outside — so it is
	// not auxiliary state under Definition 1.
	resp []nvm.CASRegister[int]
}

// New allocates a max register (initially 0) in sys's memory space.
func New(sys *runtime.System) *MaxRegister {
	sp := sys.Space()
	m := &MaxRegister{sys: sys, n: sys.N()}
	for p := 0; p < sys.N(); p++ {
		m.mr = append(m.mr, nvm.NewWord(sp, 0))
		m.resp = append(m.resp, nvm.NewWord(sp, 0))
	}
	return m
}

// WriteMax performs WriteMax(val) as process pid.
func (m *MaxRegister) WriteMax(pid, val int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return runtime.Execute(m.sys, pid, m.WriteMaxOp(pid, val), plans...)
}

// Read performs Read() as process pid.
func (m *MaxRegister) Read(pid int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return runtime.Execute(m.sys, pid, m.ReadOp(pid), plans...)
}

// WriteMaxOp builds the recoverable WriteMax operation for pid. Note the
// absence of an Announce function: the operation receives no auxiliary
// state, and its recovery function is plain re-invocation.
func (m *MaxRegister) WriteMaxOp(pid, val int) runtime.Op[int] {
	body := func(ctx *nvm.Ctx) int {
		if m.mr[pid].Load(ctx) < val { // line 47
			m.mr[pid].Store(ctx, val) // line 48
		}
		return spec.Ack // line 49
	}
	return runtime.Op[int]{
		Desc: spec.NewOp(spec.MethodWriteMax, val),
		Body: body,
		Recover: func(ctx *nvm.Ctx) (int, bool) {
			return body(ctx), true // re-invoke; idempotent by monotonicity
		},
		Encode: runtime.EncodeInt,
	}
}

// ReadOp builds the recoverable Read operation for pid: collect MR until a
// double collect succeeds, persist and return the maximum.
func (m *MaxRegister) ReadOp(pid int) runtime.Op[int] {
	body := func(ctx *nvm.Ctx) int {
		a := make([]int, m.n) // line 50: local array, initially all 0
		for {                 // line 51
			b := m.collect(ctx)
			if equal(a, b) {
				break
			}
			a = b // line 52
		}
		res := maxOf(a)             // line 53
		m.resp[pid].Store(ctx, res) // line 54
		return res                  // line 55
	}
	return runtime.Op[int]{
		Desc: spec.NewOp(spec.MethodRead),
		Body: body,
		Recover: func(ctx *nvm.Ctx) (int, bool) {
			return body(ctx), true // re-invoke
		},
		Encode: runtime.EncodeInt,
	}
}

// Peek returns the register's current value without a Ctx, for tests.
func (m *MaxRegister) Peek() int {
	best := 0
	for _, c := range m.mr {
		if v := c.Peek(); v > best {
			best = v
		}
	}
	return best
}

func (m *MaxRegister) collect(ctx *nvm.Ctx) []int {
	out := make([]int, m.n)
	for i := 0; i < m.n; i++ {
		out[i] = m.mr[i].Load(ctx)
	}
	return out
}

func equal(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func maxOf(a []int) int {
	best := a[0]
	for _, v := range a[1:] {
		if v > best {
			best = v
		}
	}
	return best
}
