package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinary builds kvbench once and drives it as a user would: the selftest
// must exit 0 with a machine line above its phase lines, and the recording
// flags retired with the BENCH_*.json files must be refused by flag parsing
// (exit status 2) rather than silently accepted.
func TestBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the binary; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "kvbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	t.Run("selftest", func(t *testing.T) {
		out, err := exec.Command(bin, "-selftest", "-shards", "2", "-conns", "1,2", "-dur", "100ms", "-keys", "16").CombinedOutput()
		if err != nil {
			t.Fatalf("kvbench -selftest: %v\n%s", err, out)
		}
		text := string(out)
		machine := strings.Index(text, "machine: cpus=")
		phase := strings.Index(text, "conns=1 ops=")
		if machine < 0 || phase < machine {
			t.Fatalf("want a machine line above the first phase line, got:\n%s", text)
		}
		for _, want := range []string{"gomaxprocs=", "go=go", "conns=2 ops=", "throughput=", "p50=", "p99="} {
			if !strings.Contains(text, want) {
				t.Errorf("output lacks %q:\n%s", want, text)
			}
		}
	})

	for _, args := range [][]string{
		{"-json", "out.json"}, {"-label", "run"}, {"-replica"}, {"-read-replica"},
	} {
		t.Run("refuses"+args[0], func(t *testing.T) {
			out, err := exec.Command(bin, append(args, "-selftest", "-dur", "100ms")...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("kvbench %v: err = %v, want exit status 2\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
				t.Fatalf("kvbench %v was not refused by flag parsing:\n%s", args, out)
			}
		})
	}
}
