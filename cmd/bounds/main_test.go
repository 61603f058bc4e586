package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden runs each subcommand in-process at fast flags and compares its
// stdout byte for byte with testdata/<name>.golden; every row must agree
// with the paper (exit 0). After a deliberate change to a table, regenerate
// its file with `go run ./cmd/bounds <args> > cmd/bounds/testdata/<name>.golden`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"configspace", []string{"configspace", "-maxn", "3"}},
		{"perturb", []string{"perturb", "-domain", "2", "-depth", "4"}},
		{"spacetable", []string{"spacetable"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := run(tc.args, &out); got != exitAgree {
				t.Fatalf("bounds %v exited %d, want %d\n%s", tc.args, got, exitAgree, out.Bytes())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("bounds %v: stdout differs from %s\ngot:\n%s\nwant:\n%s", tc.args, path, out.Bytes(), want)
			}
		})
	}
}

// TestTheorem1Verdict: a count below 2^N − 1 is VIOLATED and fails the run;
// one at or above the bound is OK.
func TestTheorem1Verdict(t *testing.T) {
	for _, tc := range []struct {
		n, got  int
		verdict string
		exit    int
	}{
		{3, 6, "VIOLATED", exitContradict},
		{1, 0, "VIOLATED", exitContradict},
		{3, 7, "OK", exitAgree},
		{4, 16, "OK", exitAgree},
	} {
		if verdict, exit := theorem1(tc.n, tc.got); verdict != tc.verdict || exit != tc.exit {
			t.Errorf("theorem1(%d, %d) = %q, %d; want %q, %d", tc.n, tc.got, verdict, exit, tc.verdict, tc.exit)
		}
	}
}

// TestExitRule: no subcommand, an unknown one, an unknown flag, a stray
// argument and an out-of-range value are usage errors (exit 2).
func TestExitRule(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"tables"},
		{"configspace", "-depth", "3"},
		{"spacetable", "extra"},
		{"configspace", "-maxn", "0"},
		{"configspace", "-maxn", "5"},
		{"spacetable", "-valuebits", "0"},
	} {
		var out bytes.Buffer
		if got := run(args, &out); got != exitUsage {
			t.Errorf("bounds %v exited %d, want %d", args, got, exitUsage)
		}
	}
}
