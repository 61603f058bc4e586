package model

import "fmt"

// RW-machine program counters, matching Algorithm 1's line numbers. Line 20
// performs two shared reads (R, then a toggle bit) and is split into 20 and
// 21; lines 9-10 and 23-24 are the toggle-bit loops, driven by the LI
// counter.
const (
	rwIdle int8 = 0
	rw1    int8 = 1  // load R
	rw2    int8 = 2  // zero A[p][q][1-qt]
	rw3    int8 = 3  // load Tp
	rw4    int8 = 4  // persist RDp
	rw5    int8 = 5  // re-load R, branch
	rw6    int8 = 6  // CP := 1
	rw7    int8 = 7  // store R
	rw8    int8 = 8  // CP := 2
	rw9    int8 = 9  // toggle-bit loop (body)
	rw11   int8 = 11 // store Tp
	rw12   int8 = 12 // persist result
	rw14   int8 = 14 // recovery: load RDp
	rw15   int8 = 15 // recovery: persisted result?
	rw17   int8 = 17 // recovery: read CP, branch
	rw20   int8 = 20 // recovery: load R, compare with saved triple
	rw21   int8 = 21 // recovery: load toggle bit A[p][q][1-qt]
	rw22   int8 = 22 // recovery: CP := 2
	rw23   int8 = 23 // toggle-bit loop (recovery)
	rw25   int8 = 25 // recovery: store Tp
	rw26   int8 = 26 // recovery: persist result
)

// RWConfig is one full configuration of the Algorithm 1 machine.
type RWConfig struct {
	// Shared memory: R = ⟨RVal, RQ, RT⟩ and the toggle-bit array A.
	RVal, RQ, RT int8
	A            [MaxProcs][MaxProcs][2]bool

	// Private non-volatile memory: RDp = ⟨mtoggle, qval, q, qtoggle⟩, Tp,
	// and the announcement fields.
	RDmt, RDqval, RDq, RDqt [MaxProcs]int8
	T                       [MaxProcs]int8
	AnnRes                  [MaxProcs]int8 // 0 = ⊥, 1 = ack
	AnnCP                   [MaxProcs]int8

	// Volatile per-process state (cleared by a crash).
	PC                [MaxProcs]int8
	LVal, LQ, LT      [MaxProcs]int8 // triple read at line 1
	LMT               [MaxProcs]int8 // toggle index read at line 3
	LI                [MaxProcs]int8 // toggle-loop counter
	DMT, DVal, DQ, DT [MaxProcs]int8 // recovery copy of RDp (line 14)

	// Adversary bookkeeping and ground truth for the assertions.
	OpIdx      [MaxProcs]int8
	InOp       [MaxProcs]bool
	WroteR     [MaxProcs]bool // ground truth: this op stored to R at line 7
	VerAtStart [MaxProcs]int8 // RVer at invocation (≤ RVer at the line-1 read)
	RVer       int8           // total number of stores to R (ground truth)
	Crashes    int8
}

// SharedKey is the memory-equivalence class: R plus the toggle array.
func (c RWConfig) SharedKey() string {
	return fmt.Sprintf("%d,%d,%d|%v", c.RVal, c.RQ, c.RT, c.A)
}

// RWMachine explores Algorithm 1 for N processes; Scripts[p] lists the
// values p writes, in order.
type RWMachine struct {
	N          int
	Scripts    [][]int8
	InitVal    int8
	MaxCrashes int
	// NoAux ablates the caller-side announcement (Theorem 2).
	NoAux bool
}

// Init returns the initial configuration: R = ⟨vinit, 0, 0⟩, A all zero.
func (m *RWMachine) Init() RWConfig {
	if m.N > MaxProcs {
		panic(fmt.Sprintf("model: N=%d exceeds MaxProcs", m.N))
	}
	return RWConfig{RVal: m.InitVal}
}

// Succ returns all successor configurations.
func (m *RWMachine) Succ(c RWConfig) ([]RWConfig, error) {
	var out []RWConfig
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

func (m *RWMachine) step(c RWConfig, p int) (RWConfig, bool, error) {
	p8 := int8(p)
	switch c.PC[p] {
	case rwIdle:
		if c.InOp[p] || int(c.OpIdx[p]) >= len(m.Scripts[p]) {
			return c, false, nil
		}
		c.InOp[p] = true
		c.WroteR[p] = false
		c.VerAtStart[p] = c.RVer
		if !m.NoAux {
			c.AnnRes[p] = 0
			c.AnnCP[p] = 0
		}
		c.PC[p] = rw1
		return c, true, nil

	case rw1: // ⟨qval, q, qtoggle⟩ := R
		c.LVal[p], c.LQ[p], c.LT[p] = c.RVal, c.RQ, c.RT
		c.PC[p] = rw2
		return c, true, nil

	case rw2: // A[p][q][1-qtoggle] := 0
		c.A[p][c.LQ[p]][1-c.LT[p]] = false
		c.PC[p] = rw3
		return c, true, nil

	case rw3: // mtoggle := Tp
		c.LMT[p] = c.T[p]
		c.PC[p] = rw4
		return c, true, nil

	case rw4: // RDp := ⟨mtoggle, qval, q, qtoggle⟩
		c.RDmt[p], c.RDqval[p], c.RDq[p], c.RDqt[p] = c.LMT[p], c.LVal[p], c.LQ[p], c.LT[p]
		c.PC[p] = rw5
		return c, true, nil

	case rw5: // if R ≠ saved triple goto 8
		if c.RVal == c.LVal[p] && c.RQ == c.LQ[p] && c.RT == c.LT[p] {
			c.PC[p] = rw6
		} else {
			c.PC[p] = rw8
		}
		return c, true, nil

	case rw6: // CP := 1
		c.AnnCP[p] = 1
		c.PC[p] = rw7
		return c, true, nil

	case rw7: // R := ⟨val, p, mtoggle⟩
		c.RVal, c.RQ, c.RT = m.val(c, p), p8, c.LMT[p]
		c.RVer++
		c.WroteR[p] = true
		c.PC[p] = rw8
		return c, true, nil

	case rw8: // CP := 2
		c.AnnCP[p] = 2
		c.LI[p] = 0
		c.PC[p] = rw9
		return c, true, nil

	case rw9: // for i: A[i][p][mtoggle] := 1
		c.A[c.LI[p]][p][c.LMT[p]] = true
		c.LI[p]++
		if int(c.LI[p]) >= m.N {
			c.PC[p] = rw11
		}
		return c, true, nil

	case rw11: // Tp := 1 - mtoggle
		c.T[p] = 1 - c.LMT[p]
		c.PC[p] = rw12
		return c, true, nil

	case rw12: // Ann.result := ack; return
		c.AnnRes[p] = 1
		return m.complete(c, p, true)

	case rw14: // recovery: ⟨mtoggle, qval, q, qtoggle⟩ := RDp
		c.DMT[p], c.DVal[p], c.DQ[p], c.DT[p] = c.RDmt[p], c.RDqval[p], c.RDq[p], c.RDqt[p]
		c.PC[p] = rw15
		return c, true, nil

	case rw15: // recovery: result persisted → ack
		if c.AnnRes[p] != 0 {
			return m.complete(c, p, true)
		}
		c.PC[p] = rw17
		return c, true, nil

	case rw17: // recovery: CP = 0 → fail; CP = 1 → line 20; CP = 2 → line 22
		switch c.AnnCP[p] {
		case 0:
			return m.complete(c, p, false)
		case 1:
			c.PC[p] = rw20
		default:
			c.PC[p] = rw22
		}
		return c, true, nil

	case rw20: // recovery: R = saved triple?
		if c.RVal == c.DVal[p] && c.RQ == c.DQ[p] && c.RT == c.DT[p] {
			c.PC[p] = rw21
		} else {
			c.PC[p] = rw22
		}
		return c, true, nil

	case rw21: // recovery: A[p][q][1-qtoggle] = 0 → fail
		if !c.A[p][c.DQ[p]][1-c.DT[p]] {
			return m.complete(c, p, false)
		}
		c.PC[p] = rw22
		return c, true, nil

	case rw22: // recovery: CP := 2
		c.AnnCP[p] = 2
		c.LI[p] = 0
		c.PC[p] = rw23
		return c, true, nil

	case rw23: // recovery: for i: A[i][p][mtoggle] := 1
		c.A[c.LI[p]][p][c.DMT[p]] = true
		c.LI[p]++
		if int(c.LI[p]) >= m.N {
			c.PC[p] = rw25
		}
		return c, true, nil

	case rw25: // recovery: Tp := 1 - mtoggle
		c.T[p] = 1 - c.DMT[p]
		c.PC[p] = rw26
		return c, true, nil

	case rw26: // recovery: Ann.result := ack; return
		c.AnnRes[p] = 1
		return m.complete(c, p, true)

	default:
		return c, false, fmt.Errorf("model: p%d at unknown pc %d", p, c.PC[p])
	}
}

// complete finishes p's write with its verdict, as the proof of Lemma 1
// requires: an ack needs p's own store to R, or a store to R after p's
// invocation (claim 1: the write linearizes immediately before that
// overwriting operation); a fail needs the write to have had no effect
// (claim 2).
func (m *RWMachine) complete(c RWConfig, p int, ack bool) (RWConfig, bool, error) {
	switch {
	case ack && !c.WroteR[p] && c.RVer == c.VerAtStart[p]:
		return c, false, Violation{PID: p, Verdict: "ack",
			Detail: "it never wrote R and no other write was linearized in its interval"}
	case !ack && c.WroteR[p]:
		return c, false, Violation{PID: p, Verdict: "fail", Detail: "it wrote R (operation was linearized)"}
	}
	c.InOp[p] = false
	c.OpIdx[p]++
	c.PC[p] = rwIdle
	return c, true, nil
}

func (m *RWMachine) crash(c RWConfig) RWConfig {
	c.Crashes++
	for p := 0; p < m.N; p++ {
		if c.InOp[p] {
			c.PC[p] = rw14
			c.LVal[p], c.LQ[p], c.LT[p], c.LMT[p], c.LI[p] = 0, 0, 0, 0, 0
			c.DMT[p], c.DVal[p], c.DQ[p], c.DT[p] = 0, 0, 0, 0
		}
	}
	return c
}

func (m *RWMachine) val(c RWConfig, p int) int8 {
	return m.Scripts[p][c.OpIdx[p]]
}

// CheckRW explores the machine exhaustively, returning distinct state and
// shared-configuration counts plus the first violation, if any.
func CheckRW(m *RWMachine, limit int) (states int, sharedConfigs int, err error) {
	shared := map[string]bool{}
	states, err = Explore(m.Init(), limit, m.Succ, func(c RWConfig) {
		shared[c.SharedKey()] = true
	})
	return states, len(shared), err
}
