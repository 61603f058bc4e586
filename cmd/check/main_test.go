package main

import (
	"os"
	"path/filepath"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/rcas"
)

// TestTracesReplay: an explore counterexample (the rcas mutant) and a sweep
// counterexample (the outcome-first mutant), each written by the
// subcommand's trace writer, reproduce under `check replay` (exit 1); the
// explore trace replays clean on the healthy algorithm (exit 0). The sweep
// trace needs no mutant to reproduce: its byte image carries the bug.
func TestTracesReplay(t *testing.T) {
	dir := t.TempDir()

	rcas.MutantDropRDPersist = true
	t.Cleanup(func() { rcas.MutantDropRDPersist = false })
	if got := run([]string{"explore", "-objects", "rcas", "-procs", "1", "-ops", "2", "-preempt", "1", "-trace-dir", dir}); got != exitViolation {
		t.Fatalf("explore on the rcas mutant exited %d, want %d", got, exitViolation)
	}
	exploreTrace := filepath.Join(dir, "rcas.trace.json")
	if got := run([]string{"replay", exploreTrace}); got != exitViolation {
		t.Fatalf("replay of the explore trace under the mutant exited %d, want %d", got, exitViolation)
	}
	rcas.MutantDropRDPersist = false
	if got := run([]string{"replay", exploreTrace}); got != exitClean {
		t.Fatalf("replay of the explore trace on healthy rcas exited %d, want %d", got, exitClean)
	}

	if got := run([]string{"sweep", "-ops", "4", "-mutant", "outcome-first", "-expect-violation", "-trace-dir", dir}); got != exitClean {
		t.Fatalf("sweep -expect-violation on the outcome-first mutant exited %d, want %d", got, exitClean)
	}
	if durable.MutantOutcomeFirst {
		t.Fatal("sweep left the outcome-first mutant set")
	}
	sweepTraces, err := filepath.Glob(filepath.Join(dir, "sweep-*.trace.json"))
	if err != nil || len(sweepTraces) == 0 {
		t.Fatalf("sweep wrote no trace (%v)", err)
	}
	if got := run([]string{"replay", sweepTraces[0]}); got != exitViolation {
		t.Fatalf("replay of %s exited %d, want %d", sweepTraces[0], got, exitViolation)
	}
}

// TestExitRule: a usage error, an unreadable or malformed trace and an
// unknown checker exit 2, a clean sweep 0 and a clean sweep that expected a
// violation 1.
func TestExitRule(t *testing.T) {
	dir := t.TempDir()
	malformed := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, exitError},
		{[]string{"replay"}, exitError},
		{[]string{"replay", filepath.Join(dir, "missing.json")}, exitError},
		{[]string{"replay", malformed("checker.json", `{"checker": "storm", "trace": {}}`)}, exitError},
		{[]string{"replay", malformed("sweep.json", `{"checker": "sweep", "trace": {}}`)}, exitError},
		{[]string{"replay", malformed("explore.json", `{"checker": "explore", "trace": {"object": "rcas", "procs": 2}}`)}, exitError},
		{[]string{"explore", "-objects", "no-such-object"}, exitError},
		{[]string{"sweep", "-mutant", "no-such-mutant"}, exitError},
		{[]string{"sweep", "-ops", "2"}, exitClean},
		{[]string{"sweep", "-ops", "2", "-expect-violation"}, exitViolation},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("check %v exited %d, want %d", tc.args, got, tc.want)
		}
	}
}
