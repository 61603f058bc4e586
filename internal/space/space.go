// Package space provides closed-form space accounting for every
// implementation in the repository, reproducing the paper's headline
// contrast (experiment E7):
//
//   - Algorithm 1 (rw): Θ(N²) shared bits beyond the value — bounded,
//     independent of the number of operations executed.
//   - Algorithm 2 (rcas): Θ(N) shared bits beyond the value — bounded and,
//     by Theorem 1, asymptotically optimal.
//   - The sequence-number baselines ([3], [4]): Θ(log ops) bits *growing
//     with the execution*, i.e. unbounded space.
//
// Bits are counted at the abstract-model granularity (a toggle bit is one
// bit, a process identifier ⌈log₂N⌉ bits), not at the granularity of the
// simulator's Go cells.
package space

import (
	"fmt"
	"math/bits"
	"strings"
)

// Profile is the space footprint of one implementation instance.
type Profile struct {
	// Impl names the implementation.
	Impl string
	// SharedBits counts shared-memory bits beyond nothing (value included).
	SharedBits int
	// SharedBeyondValue counts shared bits beyond those storing the
	// object's value — the quantity Theorem 1 bounds.
	SharedBeyondValue int
	// PrivateBitsPerProc counts each process's private non-volatile bits
	// (recovery data, toggle indices, sequence counters).
	PrivateBitsPerProc int
	// AuxBitsPerProc counts announcement-structure bits (Ann.CP plus the
	// response flag) — the auxiliary state of Definition 1. Zero for the
	// max register.
	AuxBitsPerProc int
	// Unbounded reports that the footprint grows with the operation count.
	Unbounded bool
}

// log2 returns ⌈log₂ x⌉ for x ≥ 1.
func log2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// seqBits returns the bits needed for an operation counter after ops
// operations.
func seqBits(ops uint64) int {
	if ops == 0 {
		return 1
	}
	return bits.Len64(ops)
}

// annBits is the announcement overhead counted for all detectable
// implementations that use it: 2 bits of checkpoint (values 0..2) plus a
// 1-bit response-present flag (the response value itself is the operation's
// response, already accounted to the caller).
const annBits = 3

// RW profiles Algorithm 1 for n processes and valueBits-wide values.
func RW(n, valueBits int) Profile {
	return Profile{
		Impl: "rw (Algorithm 1)",
		// R = ⟨value, writer id, toggle index⟩; A = N×N×2 bits.
		SharedBits:        valueBits + log2(n) + 1 + 2*n*n,
		SharedBeyondValue: log2(n) + 1 + 2*n*n,
		// RDp = ⟨mtoggle, value, writer id, qtoggle⟩; Tp = 1 bit.
		PrivateBitsPerProc: 1 + valueBits + log2(n) + 1 + 1,
		AuxBitsPerProc:     annBits,
	}
}

// RCAS profiles Algorithm 2 for n processes and valueBits-wide values.
func RCAS(n, valueBits int) Profile {
	return Profile{
		Impl: "rcas (Algorithm 2)",
		// C = ⟨value, N-bit vector⟩.
		SharedBits:        valueBits + n,
		SharedBeyondValue: n,
		// RDp = 1 bit.
		PrivateBitsPerProc: 1,
		AuxBitsPerProc:     annBits,
	}
}

// MaxReg profiles Algorithm 3 for n processes and valueBits-wide values.
func MaxReg(n, valueBits int) Profile {
	return Profile{
		Impl:              "maxreg (Algorithm 3)",
		SharedBits:        n * valueBits,
		SharedBeyondValue: (n - 1) * valueBits,
		// No recovery data, no announcement: zero auxiliary state.
		PrivateBitsPerProc: 0,
		AuxBitsPerProc:     0,
	}
}

// SeqRegister profiles the unbounded detectable register baseline ([3])
// after ops operations.
func SeqRegister(n, valueBits int, ops uint64) Profile {
	s := seqBits(ops)
	return Profile{
		Impl: "Attiya et al. register [3]",
		// R = ⟨value, writer id, seq⟩.
		SharedBits:        valueBits + log2(n) + s,
		SharedBeyondValue: log2(n) + s,
		// RDp mirrors R; plus the private seq counter.
		PrivateBitsPerProc: valueBits + log2(n) + 2*s,
		AuxBitsPerProc:     annBits,
		Unbounded:          true,
	}
}

// SeqCAS profiles the unbounded detectable CAS baseline ([4]) after ops
// operations.
func SeqCAS(n, valueBits int, ops uint64) Profile {
	s := seqBits(ops)
	return Profile{
		Impl: "Ben-David et al. CAS [4]",
		// C = ⟨value, owner id, seq⟩ plus the N×N help matrix of seqs.
		SharedBits:         valueBits + log2(n) + s + n*n*s,
		SharedBeyondValue:  log2(n) + s + n*n*s,
		PrivateBitsPerProc: 2 * s,
		AuxBitsPerProc:     annBits,
		Unbounded:          true,
	}
}

// Plain profiles a non-recoverable register or CAS object.
func Plain(valueBits int) Profile {
	return Profile{
		Impl:       "plain (non-recoverable)",
		SharedBits: valueBits,
	}
}

// Row is one line of a comparison table.
type Row struct {
	N        int
	Ops      uint64
	Profiles []Profile
}

// CompareCAS builds the Algorithm 2 vs baseline comparison across process
// counts and operation counts.
func CompareCAS(ns []int, opss []uint64, valueBits int) []Row {
	var rows []Row
	for _, n := range ns {
		for _, ops := range opss {
			rows = append(rows, Row{
				N: n, Ops: ops,
				Profiles: []Profile{RCAS(n, valueBits), SeqCAS(n, valueBits, ops), Plain(valueBits)},
			})
		}
	}
	return rows
}

// CompareRW builds the Algorithm 1 vs baseline comparison.
func CompareRW(ns []int, opss []uint64, valueBits int) []Row {
	var rows []Row
	for _, n := range ns {
		for _, ops := range opss {
			rows = append(rows, Row{
				N: n, Ops: ops,
				Profiles: []Profile{RW(n, valueBits), SeqRegister(n, valueBits, ops), Plain(valueBits)},
			})
		}
	}
	return rows
}

// FormatTable renders rows as an aligned text table of shared-beyond-value
// bits, the quantity the paper's bounds speak about.
func FormatTable(rows []Row) string {
	var b strings.Builder
	if len(rows) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "%6s %10s", "N", "ops")
	for _, p := range rows[0].Profiles {
		fmt.Fprintf(&b, " %26s", p.Impl)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %10d", r.N, r.Ops)
		for _, p := range r.Profiles {
			marker := ""
			if p.Unbounded {
				marker = " (grows)"
			}
			fmt.Fprintf(&b, " %18d bits%s", p.SharedBeyondValue, marker)
			if marker == "" {
				b.WriteString("        "[:8-len(marker)])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
