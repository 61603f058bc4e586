package model

import (
	"errors"
	"testing"
)

// TestTheorem1ConfigCount reproduces Theorem 1's bound empirically: the
// detectable CAS machine reaches at least 2^N − 1 (in fact 2^N) pairwise
// memory-distinct configurations, because every subset of processes that
// completed an odd number of successful CASes yields a distinct flip
// vector.
func TestTheorem1ConfigCount(t *testing.T) {
	for n := 1; n <= 4; n++ {
		got, err := ConfigCount(n)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		want := 1 << n // 2^N ≥ 2^N - 1
		if got < want-1 {
			t.Fatalf("N=%d: %d memory-distinct configurations, want ≥ %d", n, got, want-1)
		}
		if got != want {
			t.Logf("N=%d: %d configurations (vec alone would give %d)", n, got, want)
		}
	}
}

// TestCASExhaustiveDetectability explores every interleaving and crash
// placement of two processes' CAS operations; the machine's built-in
// assertions (verdict vs ground truth) must never fire.
func TestCASExhaustiveDetectability(t *testing.T) {
	cases := []struct {
		name    string
		scripts [][]OpCAS
		crashes int
	}{
		{"2proc-1op-2crashes", [][]OpCAS{{{0, 1}}, {{0, 1}}}, 2},
		{"2proc-conflict-1crash", [][]OpCAS{{{0, 1}, {1, 0}}, {{0, 1}}}, 1},
		{"2proc-chain-1crash", [][]OpCAS{{{0, 1}}, {{1, 2}}}, 1},
		{"3proc-1op-1crash", [][]OpCAS{{{0, 1}}, {{0, 1}}, {{0, 1}}}, 1},
		{"1proc-3ops-3crashes", [][]OpCAS{{{0, 1}, {1, 0}, {0, 1}}}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &CASMachine{N: len(tc.scripts), Scripts: tc.scripts, MaxCrashes: tc.crashes}
			states, shared, err := CheckCAS(m, 1<<22)
			if err != nil {
				t.Fatalf("violation after %d states: %v", states, err)
			}
			t.Logf("%d states, %d memory-distinct configurations", states, shared)
		})
	}
}

// TestIdentityCASFlipConvicted: Algorithm 2 as printed runs a Cas(0, 0)
// through the swap, flipping vec[p], so a concurrent Cas(0, 1) can fail on
// the vector alone while C holds 0 throughout; checking a false verdict
// against the CAS specification convicts that. Sending the identity CAS to
// line 30, as internal/rcas does, explores cleanly.
func TestIdentityCASFlipConvicted(t *testing.T) {
	scripts := [][]OpCAS{{{0, 1}}, {{0, 0}}}
	m := &CASMachine{N: 2, Scripts: scripts, MaxCrashes: 1, AsPrinted: true}
	states, _, err := CheckCAS(m, 1<<22)
	var v Violation
	if !errors.As(err, &v) || v.Verdict != "false" {
		t.Fatalf("as printed: no false-verdict violation after %d states (err=%v)", states, err)
	}
	t.Logf("as printed, after %d states: %v", states, v)
	m.AsPrinted = false
	if _, _, err := CheckCAS(m, 1<<22); err != nil {
		t.Fatalf("identity CAS to line 30: %v", err)
	}
}

// TestTheorem2CASAblation removes the auxiliary state (the caller's reset
// of Ann.result and Ann.CP between invocations) and checks the explorer
// finds a detectability violation — the concrete counterpart of the
// contradiction constructed in Figure 2 of the paper.
func TestTheorem2CASAblation(t *testing.T) {
	m := &CASMachine{
		N:          1,
		Scripts:    [][]OpCAS{{{0, 1}, {1, 0}}},
		MaxCrashes: 1,
		NoAux:      true,
	}
	_, _, err := CheckCAS(m, 1<<22)
	var v Violation
	if !errors.As(err, &v) {
		t.Fatalf("no violation found without auxiliary state (err=%v)", err)
	}
	t.Logf("violation (expected): %v", v)
}

// TestTheorem2CASWithAuxClean is the control: the same script with the
// announcement in place explores cleanly.
func TestTheorem2CASWithAuxClean(t *testing.T) {
	m := &CASMachine{
		N:          1,
		Scripts:    [][]OpCAS{{{0, 1}, {1, 0}}},
		MaxCrashes: 1,
	}
	if _, _, err := CheckCAS(m, 1<<22); err != nil {
		t.Fatalf("unexpected violation with auxiliary state: %v", err)
	}
}

// TestRWExhaustiveDetectability explores Algorithm 1 exhaustively; the
// proof obligations of Lemma 1 (fail ⇒ no effect; ack ⇒ own write or
// overwritten) are asserted at every completion.
func TestRWExhaustiveDetectability(t *testing.T) {
	cases := []struct {
		name    string
		scripts [][]int8
		crashes int
	}{
		{"1proc-2ops-2crashes", [][]int8{{1, 2}}, 2},
		{"2proc-1op-1crash", [][]int8{{1}, {2}}, 1},
		{"2proc-samevalue-1crash", [][]int8{{1}, {1}}, 1},
		{"2proc-2+1ops-1crash", [][]int8{{1, 2}, {3}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &RWMachine{N: len(tc.scripts), Scripts: tc.scripts, MaxCrashes: tc.crashes}
			states, shared, err := CheckRW(m, 1<<23)
			if err != nil {
				t.Fatalf("violation after %d states: %v", states, err)
			}
			t.Logf("%d states, %d memory-distinct configurations", states, shared)
		})
	}
}

// TestRWABASchedule drives the machine through the exact ABA schedule of
// the Lemma 1 proof (three writes by q restoring R's triple while p is
// down) and confirms exploration with crashes covers it without violations.
func TestRWABASchedule(t *testing.T) {
	m := &RWMachine{
		N:          2,
		Scripts:    [][]int8{{5}, {7, 8, 0}}, // q's third write restores init value 0
		MaxCrashes: 1,
	}
	states, _, err := CheckRW(m, 1<<23)
	if err != nil {
		t.Fatalf("violation after %d states: %v", states, err)
	}
}

// TestTheorem2RWAblation: without the announcement resets, Algorithm 1's
// recovery returns stale verdicts; the explorer must catch it.
func TestTheorem2RWAblation(t *testing.T) {
	m := &RWMachine{
		N:          1,
		Scripts:    [][]int8{{1, 2}},
		MaxCrashes: 1,
		NoAux:      true,
	}
	_, _, err := CheckRW(m, 1<<22)
	var v Violation
	if !errors.As(err, &v) {
		t.Fatalf("no violation found without auxiliary state (err=%v)", err)
	}
	t.Logf("violation (expected): %v", v)
}

// TestCrashBudgetRespected: with zero budget no recovery PC is ever
// reached, and states stay crash-free.
func TestCrashBudgetRespected(t *testing.T) {
	m := &CASMachine{N: 2, Scripts: [][]OpCAS{{{0, 1}}, {{1, 0}}}}
	_, err := Explore(m.Init(), 1<<20, m.Succ, func(c CASConfig) {
		if c.Crashes != 0 {
			t.Fatal("crash transition taken with zero budget")
		}
		for p := 0; p < 2; p++ {
			if c.PC[p] >= pc38 {
				t.Fatal("recovery PC reached without crashes")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExploreLimit: the state-limit guard trips.
func TestExploreLimit(t *testing.T) {
	m := &CASMachine{N: 3, Scripts: [][]OpCAS{{{0, 1}}, {{0, 1}}, {{0, 1}}}, MaxCrashes: 2}
	_, err := Explore(m.Init(), 10, m.Succ, nil)
	if err == nil {
		t.Fatal("limit 10 not enforced")
	}
}

// TestSharedKeyDistinguishes: configurations differing only in shared
// memory map to different keys; differing only in volatile state map to the
// same key.
func TestSharedKeyDistinguishes(t *testing.T) {
	a := CASConfig{Val: 1, Vec: 0b01}
	b := CASConfig{Val: 1, Vec: 0b10}
	if a.SharedKey() == b.SharedKey() {
		t.Fatal("different vectors, same shared key")
	}
	c := a
	c.PC[0] = pc35 // volatile only
	if a.SharedKey() != c.SharedKey() {
		t.Fatal("volatile state leaked into the shared key")
	}

	x := RWConfig{RVal: 1}
	y := RWConfig{RVal: 2}
	if x.SharedKey() == y.SharedKey() {
		t.Fatal("different R values, same shared key")
	}
	z := x
	z.PC[1] = rw7
	if x.SharedKey() != z.SharedKey() {
		t.Fatal("volatile state leaked into the RW shared key")
	}
}

// TestViolationError covers the error rendering.
func TestViolationError(t *testing.T) {
	v := Violation{PID: 1, Verdict: "fail", Detail: "x"}
	if v.Error() == "" {
		t.Fatal("empty violation message")
	}
}
