package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBinary builds loadgen once and drives it as a user would: a run over
// the wire prints its machine line above its latency line and counts, with
// no MPUT, one op per timed request — its own workers' ops in the window,
// not the server's, which include the key zeroing before it — and
// recording flags (the record of performance is bench/) and the removed
// pacing flag are refused by flag parsing (exit status 2) rather than
// silently accepted.
func TestBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the binary; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "loadgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("loadgen %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	t.Run("remote-self", func(t *testing.T) {
		text := run(t, "-remote", "self", "-shards", "2", "-procs", "2", "-dur", "100ms", "-keys", "16")
		machine := strings.Index(text, "machine: cpus=")
		latency := strings.Index(text, "latency: requests=")
		if machine < 0 || latency < machine {
			t.Fatalf("want a machine line above the latency line, got:\n%s", text)
		}
		for _, want := range []string{"gomaxprocs=", "go=go", "p50=", "p99=", "max=", "zero violations"} {
			if !strings.Contains(text[machine:], want) {
				t.Errorf("output lacks %q:\n%s", want, text)
			}
		}
		ops := regexp.MustCompile(`(?m)^aggregate: (\d+) ops`).FindStringSubmatch(text)
		requests := regexp.MustCompile(`(?m)^latency: requests=(\d+) `).FindStringSubmatch(text)
		if ops == nil || requests == nil || ops[1] != requests[1] || ops[1] == "0" {
			t.Errorf("want as many aggregate ops as timed requests, and some, got:\n%s", text)
		}
	})

	for _, args := range [][]string{{"-json", "out.json"}, {"-label", "run"}, {"-replica"}, {"-rate", "500"}} {
		t.Run("refuses"+args[0], func(t *testing.T) {
			out, err := exec.Command(bin, append(args, "-remote", "self", "-dur", "100ms")...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("loadgen %v: err = %v, want exit status 2\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
				t.Fatalf("loadgen %v was not refused by flag parsing:\n%s", args, out)
			}
		})
	}
}

// TestModeOf: two modes at once, and a mode-only flag without a mode it
// serves, are refused up front instead of being ignored.
func TestModeOf(t *testing.T) {
	for _, tc := range []struct {
		on, set []string
		refused string // "" = accepted
	}{
		{nil, nil, ""},
		{[]string{"remote"}, nil, ""},
		{nil, []string{"server-bin", "data"}, "-data is for"},
		{[]string{"remote"}, []string{"server-bin"}, "-server-bin is for"},
		{[]string{"restart-storm"}, []string{"server-bin", "data", "restarts", "restart-every"}, ""},
		{[]string{"restart-storm"}, []string{"failovers"}, "-failovers is for -failover-storm only"},
		{[]string{"failover-storm"}, []string{"server-bin", "failovers", "failover-every"}, ""},
		{[]string{"read-replica"}, []string{"readers", "max-lag", "data"}, ""},
		{nil, []string{"readers"}, "-readers is for -read-replica only"},
		{[]string{"restart-storm", "read-replica"}, nil, "pick one"},
		{[]string{"failover-storm", "remote"}, nil, "pick one"},
	} {
		on, set := map[string]bool{}, map[string]bool{}
		for _, m := range tc.on {
			on[m] = true
		}
		for _, f := range tc.set {
			set[f] = true
		}
		mode, err := modeOf(on, set)
		if tc.refused == "" && (err != nil || len(tc.on) == 1 && mode != tc.on[0]) ||
			tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)) {
			t.Errorf("modes %v, flags %v: modeOf = %q, %v; want refused %q", tc.on, tc.set, mode, err, tc.refused)
		}
	}
}
