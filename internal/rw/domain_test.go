package rw

import (
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// domainMax returns d's largest value; its least is −domainMax(d)−1.
func domainMax(d Domain) int { return 1<<(63-d.tag) - 1 }

// TestDomainBounds: an N-process register holds the signed integers of
// 64 − (⌈log₂N⌉+1) bits and nothing else.
func TestDomainBounds(t *testing.T) {
	for n, valueBits := range map[int]uint{1: 63, 2: 62, 3: 61, 4: 61, 5: 60, 8: 60, 9: 59, 16: 59, 17: 58} {
		d := DomainOf(n)
		lo, hi := -1<<(valueBits-1), 1<<(valueBits-1)-1
		if domainMax(d) != hi {
			t.Errorf("N=%d: max = %d, want %d", n, domainMax(d), hi)
		}
		for v, want := range map[int]bool{lo: true, hi: true, 0: true, -1: true, lo - 1: false, hi + 1: false} {
			if d.Contains(v) != want {
				t.Errorf("N=%d: Contains(%d) = %v, want %v", n, v, !want, want)
			}
		}
	}
	if got := DomainOf(8).String(); got != "[-2^59, 2^59)" {
		t.Errorf("DomainOf(8) = %s", got)
	}
}

// TestPackRoundTrip: R's word gives back the triple it was packed from, and
// distinct triples give distinct words — line 5's and line 20's word
// comparisons are triple comparisons.
func TestPackRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 13} {
		d := DomainOf(n)
		seen := map[int64]Triple{}
		for _, v := range []int{-domainMax(d) - 1, -domainMax(d), -7, -1, 0, 1, 7, domainMax(d) - 1, domainMax(d)} {
			for q := 0; q < n; q++ {
				for b := int8(0); b < 2; b++ {
					want := Triple{Val: v, Q: int32(q), Toggle: b}
					w := d.pack(v, q, b)
					if got := d.unpack(w); got != want {
						t.Fatalf("N=%d: unpack(pack(%+v)) = %+v", n, want, got)
					}
					if prev, dup := seen[w]; dup {
						t.Fatalf("N=%d: %+v and %+v pack to one word %#x", n, prev, want, w)
					}
					seen[w] = want
				}
			}
		}
	}
}

// TestOutsideDomainPanicsBeforeAnyPrimitive: a value the word cannot hold
// is refused where an out-of-range pid is, before the operation announces
// anything — no primitive, no history event, R untouched.
func TestOutsideDomainPanicsBeforeAnyPrimitive(t *testing.T) {
	sys := runtime.NewSystem(8)
	reg := NewInt(sys, 5)
	st := sys.Space().Stats()
	for _, v := range []int{1 << 59, -1<<59 - 1, 1 << 62} {
		before, events := st.Total(), len(sys.Log().Events())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Write(%d) at N=8 did not panic", v)
				}
			}()
			reg.Write(0, v)
		}()
		if st.Total() != before || len(sys.Log().Events()) != events {
			t.Errorf("Write(%d) ran %d primitives and logged %d events before refusing", v, st.Total()-before, len(sys.Log().Events())-events)
		}
		if got := reg.PeekTriple(); got != (Triple{Val: 5}) {
			t.Errorf("R = %+v after a refused Write(%d)", got, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRegister(2^59) at N=8 did not panic")
		}
	}()
	NewProcs(sys).NewRegister(1 << 59)
}

// TestDomainEdgesSurviveCrashes: the domain's two ends written, read and
// recovered at every crash point of a solo write, at N = 8.
func TestDomainEdgesSurviveCrashes(t *testing.T) {
	d := DomainOf(8)
	lo, hi := -domainMax(d)-1, domainMax(d)
	for step := uint64(1); step <= 21; step++ {
		sys := runtime.NewSystem(8)
		reg := NewInt(sys, lo)
		out := reg.Write(3, hi, nvm.CrashAtStep(step))
		want := lo
		if out.Status.Linearized() {
			want = hi
		}
		if got := reg.Read(5); got.Resp != want {
			t.Fatalf("step %d: verdict %v, read %d, want %d", step, out.Status, got.Resp, want)
		}
		checkDL(t, sys, lo)
	}
}
