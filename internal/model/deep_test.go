package model

import (
	"os"
	"testing"
)

// TestRWThreeProcsNoCrash explores Algorithm 1 for three concurrent
// writers over every interleaving (crash-free), asserting the Lemma 1
// proof obligations at every completion.
func TestRWThreeProcsNoCrash(t *testing.T) {
	m := &RWMachine{N: 3, Scripts: [][]int8{{1}, {2}, {3}}}
	states, shared, err := CheckRW(m, 1<<23)
	if err != nil {
		t.Fatalf("violation after %d states: %v", states, err)
	}
	t.Logf("%d states, %d memory-distinct configurations", states, shared)
}

// TestRWThreeProcsOneCrashDeep is the full three-writer exploration with a
// crash budget: 13.6M states, ~80s. Opt in with DETECTABLE_DEEP_TESTS=1;
// a run that ends without a violation is experiment E1 (explore.go) at
// N = 3, and the test logs its state and configuration counts.
func TestRWThreeProcsOneCrashDeep(t *testing.T) {
	if os.Getenv("DETECTABLE_DEEP_TESTS") == "" {
		t.Skip("set DETECTABLE_DEEP_TESTS=1 to run the 13.6M-state exploration")
	}
	m := &RWMachine{N: 3, Scripts: [][]int8{{1}, {2}, {3}}, MaxCrashes: 1}
	states, shared, err := CheckRW(m, 1<<24)
	if err != nil {
		t.Fatalf("violation after %d states: %v", states, err)
	}
	t.Logf("%d states, %d memory-distinct configurations", states, shared)
}

// TestCASThreeProcsTwoCrashes deepens the Algorithm 2 exploration: three
// conflicting CASers with two crash-failures allowed.
func TestCASThreeProcsTwoCrashes(t *testing.T) {
	m := &CASMachine{
		N:          3,
		Scripts:    [][]OpCAS{{{0, 1}}, {{0, 2}}, {{1, 0}}},
		MaxCrashes: 2,
	}
	states, shared, err := CheckCAS(m, 1<<23)
	if err != nil {
		t.Fatalf("violation after %d states: %v", states, err)
	}
	t.Logf("%d states, %d memory-distinct configurations", states, shared)
}
