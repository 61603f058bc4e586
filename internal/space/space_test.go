package space

import (
	"strings"
	"testing"
)

func TestRCASLinearInN(t *testing.T) {
	// Algorithm 2's shared-beyond-value bits are exactly N.
	for _, n := range []int{1, 2, 8, 64} {
		p := RCAS(n, 32)
		if p.SharedBeyondValue != n {
			t.Fatalf("N=%d: beyond-value = %d, want %d", n, p.SharedBeyondValue, n)
		}
		if p.Unbounded {
			t.Fatal("Algorithm 2 reported unbounded")
		}
	}
}

func TestRWQuadraticInN(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		p := RW(n, 32)
		want := log2(n) + 1 + 2*n*n
		if p.SharedBeyondValue != want {
			t.Fatalf("N=%d: beyond-value = %d, want %d", n, p.SharedBeyondValue, want)
		}
	}
}

func TestBaselinesGrowWithOps(t *testing.T) {
	small := SeqCAS(8, 32, 1000)
	big := SeqCAS(8, 32, 1_000_000_000)
	if big.SharedBeyondValue <= small.SharedBeyondValue {
		t.Fatalf("SeqCAS did not grow: %d vs %d", small.SharedBeyondValue, big.SharedBeyondValue)
	}
	if !big.Unbounded {
		t.Fatal("SeqCAS not marked unbounded")
	}

	rSmall := SeqRegister(8, 32, 1000)
	rBig := SeqRegister(8, 32, 1_000_000_000)
	if rBig.SharedBits <= rSmall.SharedBits {
		t.Fatal("SeqRegister did not grow")
	}
}

func TestBoundedAlgorithmsDoNotGrowWithOps(t *testing.T) {
	// The paper's algorithms have no ops parameter at all; spot-check the
	// crossover: for enough operations the baseline overtakes Algorithm 2.
	n := 16
	alg2 := RCAS(n, 32)
	base := SeqCAS(n, 32, 1<<40)
	if base.SharedBeyondValue <= alg2.SharedBeyondValue {
		t.Fatalf("baseline (%d bits) did not overtake Algorithm 2 (%d bits)",
			base.SharedBeyondValue, alg2.SharedBeyondValue)
	}
}

func TestMaxRegNoAuxBits(t *testing.T) {
	p := MaxReg(4, 32)
	if p.AuxBitsPerProc != 0 || p.PrivateBitsPerProc != 0 {
		t.Fatalf("max register has aux/private bits: %+v", p)
	}
	if p.SharedBits != 4*32 {
		t.Fatalf("SharedBits = %d", p.SharedBits)
	}
}

func TestDetectableAlgorithmsHaveAuxBits(t *testing.T) {
	// Theorem 2: detectable implementations of doubly-perturbing objects
	// need auxiliary state; the profiles reflect it.
	for _, p := range []Profile{RW(4, 32), RCAS(4, 32), SeqRegister(4, 32, 10), SeqCAS(4, 32, 10)} {
		if p.AuxBitsPerProc == 0 {
			t.Fatalf("%s reports zero auxiliary bits", p.Impl)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 64: 6}
	for x, want := range cases {
		if got := log2(x); got != want {
			t.Errorf("log2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestSeqBits(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 255: 8, 256: 9}
	for x, want := range cases {
		if got := seqBits(x); got != want {
			t.Errorf("seqBits(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestCompareTables(t *testing.T) {
	rows := CompareCAS([]int{2, 8}, []uint64{1000, 1000000}, 32)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatTable(rows)
	if !strings.Contains(out, "rcas") || !strings.Contains(out, "grows") {
		t.Fatalf("table missing expected columns:\n%s", out)
	}
	rwRows := CompareRW([]int{2}, []uint64{10}, 8)
	if len(rwRows) != 1 {
		t.Fatal("CompareRW rows")
	}
	if FormatTable(nil) != "" {
		t.Fatal("empty table not empty")
	}
}
