package model

import "fmt"

// MaxProcs bounds the machine sizes; states embed fixed-size arrays so they
// are comparable and hashable by value.
const MaxProcs = 4

// OpCAS is one scripted Cas(Old, New) invocation.
type OpCAS struct {
	Old, New int8
}

// Verdicts of a completed operation (stored in Ann.result encoding).
const (
	resBot   int8 = 0 // ⊥
	resFalse int8 = 1
	resTrue  int8 = 2
)

// CAS-machine program counters; body and recovery values match the paper's
// line numbers of Algorithm 2.
const (
	pcIdle int8 = 0
	pc28   int8 = 28 // load C
	pc30   int8 = 30 // persist false (val mismatch)
	pc33   int8 = 33 // persist RDp
	pc34   int8 = 34 // CP := 1
	pc35   int8 = 35 // the CAS primitive
	pc36   int8 = 36 // persist result
	pc38   int8 = 38 // recovery: check persisted result
	pc40   int8 = 40 // recovery: check CP
	pc42   int8 = 42 // recovery: load C, compare vec[p] with RDp
	pc45   int8 = 45 // recovery: persist true
)

// CASConfig is one full configuration of the Algorithm 2 machine:
// shared memory (Val, Vec), private NVM (RD, AnnRes, AnnCP), volatile state
// (PC, locals) and adversary bookkeeping (script positions, crash budget,
// ground-truth flags used by the assertions).
type CASConfig struct {
	// Shared memory: C = ⟨Val, Vec⟩.
	Val int8
	Vec uint8

	// Private non-volatile memory.
	RD     [MaxProcs]bool
	AnnRes [MaxProcs]int8
	AnnCP  [MaxProcs]int8

	// Volatile per-process state (cleared by a crash).
	PC   [MaxProcs]int8
	LVal [MaxProcs]int8 // value loaded at line 28
	LVec [MaxProcs]uint8
	Res  [MaxProcs]int8 // CAS outcome local, for line 36

	// Adversary bookkeeping (not memory; part of the exploration state).
	OpIdx     [MaxProcs]int8
	InOp      [MaxProcs]bool
	Succeeded [MaxProcs]bool // ground truth: current op linearized true (its CAS succeeded, or C held Old at an identity CAS's load)
	Differed  [MaxProcs]bool // ground truth: C's value differed from the current op's Old at some point of it
	Crashes   int8
}

// SharedKey is the memory-equivalence class of the configuration: the
// values of all shared variables (Theorem 1 counts exactly these).
func (c CASConfig) SharedKey() string { return fmt.Sprintf("%d|%b", c.Val, c.Vec) }

// CASMachine explores Algorithm 2 for N processes running the given
// per-process scripts.
type CASMachine struct {
	// N is the number of processes (≤ MaxProcs).
	N int
	// Scripts lists each process's operations, invoked in order.
	Scripts [][]OpCAS
	// InitVal is C's initial value.
	InitVal int8
	// MaxCrashes bounds the number of system-wide crash transitions.
	MaxCrashes int
	// NoAux ablates the auxiliary state: invocations do NOT reset
	// Ann.result and Ann.CP (Theorem 2's hypothetical). With this flag the
	// explorer is expected to find detectability violations.
	NoAux bool
	// AsPrinted runs a Cas(x, x) through lines 32–37, flipping vec[p], as
	// Algorithm 2 prints them; else line 29 sends it to line 30, as rcas does.
	AsPrinted bool
}

// Init returns the initial configuration.
func (m *CASMachine) Init() CASConfig {
	if m.N > MaxProcs {
		panic(fmt.Sprintf("model: N=%d exceeds MaxProcs", m.N))
	}
	return CASConfig{Val: m.InitVal}
}

// Violation describes a detectability breach found during exploration.
type Violation struct {
	PID     int
	Verdict string
	Detail  string
}

// Error implements error.
func (v Violation) Error() string {
	return fmt.Sprintf("model: detectability violation by p%d: verdict %s but %s", v.PID, v.Verdict, v.Detail)
}

// Succ returns all successor configurations: one per enabled process step,
// plus a crash transition while the budget lasts.
func (m *CASMachine) Succ(c CASConfig) ([]CASConfig, error) {
	var out []CASConfig
	for p := 0; p < m.N; p++ {
		ns, ok, err := m.step(c, p)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, ns)
		}
	}
	if int(c.Crashes) < m.MaxCrashes {
		out = append(out, m.crash(c))
	}
	return out, nil
}

// step executes process p's next transition, if any.
func (m *CASMachine) step(c CASConfig, p int) (CASConfig, bool, error) {
	bit := uint8(1) << uint(p)
	switch c.PC[p] {
	case pcIdle:
		if c.InOp[p] || int(c.OpIdx[p]) >= len(m.Scripts[p]) {
			return c, false, nil
		}
		// Invocation: the caller announces the operation. With auxiliary
		// state this resets Ann.result to ⊥ and Ann.CP to 0; the ablated
		// machine leaves the stale values in place.
		c.InOp[p] = true
		c.Succeeded[p] = false
		c.Differed[p] = c.Val != m.op(c, p).Old
		if !m.NoAux {
			c.AnnRes[p] = resBot
			c.AnnCP[p] = 0
		}
		c.PC[p] = pc28
		return c, true, nil

	case pc28: // ⟨val, vec⟩ := C
		c.LVal[p], c.LVec[p] = c.Val, c.Vec
		op := m.op(c, p)
		if c.LVal[p] != op.Old || op.Old == op.New && !m.AsPrinted {
			c.PC[p] = pc30
		} else {
			c.PC[p] = pc33
		}
		return c, true, nil

	case pc30: // Ann.result := (val = old); return it — true only for an identity CAS
		res := resFalse
		if c.LVal[p] == m.op(c, p).Old {
			res, c.Succeeded[p] = resTrue, true
		}
		c.AnnRes[p] = res
		return m.complete(c, p, res)

	case pc33: // RDp := newvec[p]
		c.RD[p] = c.LVec[p]&bit == 0 // flipped bit value
		c.PC[p] = pc34
		return c, true, nil

	case pc34: // Ann.CP := 1
		c.AnnCP[p] = 1
		c.PC[p] = pc35
		return c, true, nil

	case pc35: // res := C.CAS(⟨val,vec⟩, ⟨new,newvec⟩)
		op := m.op(c, p)
		if c.Val == c.LVal[p] && c.Vec == c.LVec[p] {
			c.Val = op.New
			c.Vec = c.LVec[p] ^ bit
			c.Succeeded[p] = true
			c.Res[p] = resTrue
			for q := 0; q < m.N; q++ {
				c.Differed[q] = c.Differed[q] || c.InOp[q] && m.op(c, q).Old != op.New
			}
		} else {
			c.Res[p] = resFalse
		}
		c.PC[p] = pc36
		return c, true, nil

	case pc36: // Ann.result := res; return res
		c.AnnRes[p] = c.Res[p]
		return m.complete(c, p, c.Res[p])

	case pc38: // recovery: persisted result?
		if c.AnnRes[p] != resBot {
			return m.complete(c, p, c.AnnRes[p])
		}
		c.PC[p] = pc40
		return c, true, nil

	case pc40: // recovery: CP = 0 → fail
		if c.AnnCP[p] == 0 {
			return m.complete(c, p, resBot)
		}
		c.PC[p] = pc42
		return c, true, nil

	case pc42: // recovery: ⟨val,vec⟩ := C; vec[p] ≠ RDp → fail
		if (c.Vec&bit != 0) != c.RD[p] {
			return m.complete(c, p, resBot)
		}
		c.PC[p] = pc45
		return c, true, nil

	case pc45: // recovery: Ann.result := true; return true
		c.AnnRes[p] = resTrue
		return m.complete(c, p, resTrue)

	default:
		return c, false, fmt.Errorf("model: p%d at unknown pc %d", p, c.PC[p])
	}
}

// complete finishes p's current operation with the given verdict (resBot:
// fail, which must have had no effect), checking it against the ground
// truth.
func (m *CASMachine) complete(c CASConfig, p int, verdict int8) (CASConfig, bool, error) {
	switch {
	case verdict == resTrue && !c.Succeeded[p]:
		return c, false, Violation{PID: p, Verdict: "true", Detail: "its CAS never succeeded"}
	case verdict == resFalse && c.Succeeded[p]:
		return c, false, Violation{PID: p, Verdict: "false", Detail: "its CAS succeeded"}
	case verdict == resFalse && !c.Differed[p]:
		return c, false, Violation{PID: p, Verdict: "false", Detail: "C held its old value throughout"}
	case verdict == resBot && c.Succeeded[p]:
		return c, false, Violation{PID: p, Verdict: "fail", Detail: "its CAS succeeded (operation was linearized)"}
	}
	c.InOp[p] = false
	c.OpIdx[p]++
	c.PC[p] = pcIdle
	return c, true, nil
}

// crash performs the system-wide crash transition: every process inside an
// operation loses its volatile state and restarts at the recovery function.
func (m *CASMachine) crash(c CASConfig) CASConfig {
	c.Crashes++
	for p := 0; p < m.N; p++ {
		if c.InOp[p] {
			c.PC[p] = pc38
			c.LVal[p], c.LVec[p], c.Res[p] = 0, 0, 0
		}
	}
	return c
}

func (m *CASMachine) op(c CASConfig, p int) OpCAS {
	return m.Scripts[p][c.OpIdx[p]]
}

// CheckCAS explores the machine exhaustively and returns the number of
// distinct configurations, the number of distinct shared-memory
// (memory-equivalence) classes, and the first detectability violation, if
// any.
func CheckCAS(m *CASMachine, limit int) (states int, sharedConfigs int, err error) {
	shared := map[string]bool{}
	states, err = Explore(m.Init(), limit, m.Succ, func(c CASConfig) {
		shared[c.SharedKey()] = true
	})
	return states, len(shared), err
}

// ConfigCount runs the Theorem 1 experiment: N processes each perform
// Cas(0, 1) then Cas(1, 0). Each successful CAS flips its process's vector
// bit, so vec[p] is the parity of p's successes and Val their total
// parity; exploring all interleavings realizes every subset of flipped
// bits, so the count of memory-distinct configurations must reach 2^N.
func ConfigCount(n int) (int, error) {
	scripts := make([][]OpCAS, n)
	for p := range scripts {
		scripts[p] = []OpCAS{{Old: 0, New: 1}, {Old: 1, New: 0}}
	}
	m := &CASMachine{N: n, Scripts: scripts}
	_, sharedConfigs, err := CheckCAS(m, 1<<22)
	return sharedConfigs, err
}
