package detectable_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestMainsSmoke builds and runs every cmd/ and examples/ main with fast
// flags, asserting a zero exit status and non-empty output — so the
// binaries are exercised by the ordinary test gate instead of rotting
// untested.
func TestMainsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests spawn the go tool; skipped in -short mode")
	}
	cases := []struct {
		name string
		args []string
	}{
		{"quickstart", []string{"run", "./examples/quickstart"}},
		{"kvstore", []string{"run", "./examples/kvstore"}},
		{"bankcounter", []string{"run", "./examples/bankcounter"}},
		{"jobqueue", []string{"run", "./examples/jobqueue"}},
		{"bounds", []string{"run", "./cmd/bounds", "spacetable"}},
		{"loadgen", []string{"run", "./cmd/loadgen", "-mix", "crash-storm", "-procs", "2", "-shards", "2", "-keys", "8", "-dur", "200ms"}},
		{"kvserverd", []string{"run", "./cmd/kvserverd", "-addr", "127.0.0.1:0", "-shards", "2", "-procs", "2", "-dur", "300ms"}},
		{"loadgen-rate", []string{"run", "./cmd/loadgen", "-remote", "self", "-rate", "1000", "-procs", "2", "-shards", "2", "-keys", "32", "-dur", "150ms"}},
		{"loadgen-remote", []string{"run", "./cmd/loadgen", "-remote", "self", "-mix", "crash-storm", "-procs", "2", "-shards", "2", "-keys", "8", "-dur", "300ms"}},
		{"explore", []string{"run", "./cmd/check", "explore", "-objects", "rcas,maxreg", "-procs", "2", "-ops", "1", "-crashes", "1", "-preempt", "1", "-budget", "10s"}},
		{"explore-list", []string{"run", "./cmd/check", "explore", "-list"}},
		{"sweep", []string{"run", "./cmd/check", "sweep", "-ops", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go %v failed: %v\n%s", tc.args, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("go %v produced no output", tc.args)
			}
		})
	}
}

var (
	kvserverdOnce sync.Once
	kvserverdBin  string
	kvserverdErr  error
)

// kvserverd builds the daemon once for the three storm smokes (TestMain
// removes it) and skips the calling test under -short.
func kvserverd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns server processes; skipped in -short mode")
	}
	kvserverdOnce.Do(func() {
		var dir string
		if dir, kvserverdErr = os.MkdirTemp("", "smoke-kvserverd-"); kvserverdErr != nil {
			return
		}
		kvserverdBin = filepath.Join(dir, "kvserverd")
		if out, err := exec.Command("go", "build", "-o", kvserverdBin, "./cmd/kvserverd").CombinedOutput(); err != nil {
			kvserverdErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if kvserverdErr != nil {
		t.Fatalf("build kvserverd: %v", kvserverdErr)
	}
	return kvserverdBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if kvserverdBin != "" {
		os.RemoveAll(filepath.Dir(kvserverdBin))
	}
	os.Exit(code)
}

// storm runs one loadgen storm mode against the shared kvserverd, requires
// its zero-violations verdict and returns what it printed.
func storm(t *testing.T, args ...string) string {
	t.Helper()
	args = append([]string{"run", "./cmd/loadgen", "-server-bin", kvserverd(t), "-data", filepath.Join(t.TempDir(), "data")}, args...)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %v failed: %v\n%s", args, err, out)
	}
	if !strings.Contains(string(out), "zero violations") {
		t.Fatalf("go %v did not report zero violations:\n%s", args, out)
	}
	return string(out)
}

// TestRestartStormSmoke runs a short whole-process crash-restart cycle:
// loadgen -restart-storm SIGKILLs a durable kvserverd mid-workload and
// fails on any cross-restart detectability violation. The CI wire-smoke
// job runs the full-length version; this pins the mode into the ordinary
// test gate.
func TestRestartStormSmoke(t *testing.T) {
	// One storm on the daemon's default schedule: every epoch anchors as
	// soon as the caller that opened it can write, so there is no epoch
	// interval left to vary.
	t.Run("default", func(t *testing.T) {
		storm(t, "-restart-storm",
			"-mix", "crash-storm", "-procs", "2", "-shards", "2", "-keys", "8",
			"-dur", "1s", "-restarts", "2", "-restart-every", "400ms")
	})
	// -restarts 0: a spawned durable server under the checked load, with
	// nothing killed.
	t.Run("no-faults", func(t *testing.T) {
		out := storm(t, "-restart-storm", "-mix", "mixed", "-procs", "2", "-shards", "2", "-keys", "8",
			"-dur", "300ms", "-restarts", "0")
		for _, want := range []string{"across 0 SIGKILL/restart cycles", "data-fs=", "latency: requests="} {
			if !strings.Contains(out, want) {
				t.Errorf("output lacks %q:\n%s", want, out)
			}
		}
	})
}

// TestFailoverStormSmoke runs a short primary/backup failover cycle:
// loadgen -failover-storm SIGKILLs the primary mid-workload, promotes the
// warm standby and requires zero detectability violations plus at least
// one verdict served from the promoted replica's recovered outcome
// window. The CI wire-smoke job runs the full-length version; this pins
// the mode into the ordinary test gate.
func TestFailoverStormSmoke(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		storm(t, "-failover-storm",
			"-mix", "crash-storm", "-procs", "2", "-shards", "2", "-keys", "8",
			"-dur", "2s", "-failovers", "2", "-failover-every", "500ms")
	})
	// -failovers 0: a primary gated by its sync standby under the checked
	// load, with nothing killed and no replica-served verdict owed.
	t.Run("no-faults", func(t *testing.T) {
		out := storm(t, "-failover-storm", "-mix", "mixed", "-procs", "2", "-shards", "2", "-keys", "8",
			"-dur", "300ms", "-failovers", "0")
		if !strings.Contains(out, "across 0 kill+promote cycles") {
			t.Errorf("output lacks the zero-cycle count:\n%s", out)
		}
	})
}

// TestReadReplicaStormSmoke runs a short read-replica storm: writers at the
// primary, bounded-stale verified readers at the standby, one
// SIGKILL+promote a third of the way in with the readers live. loadgen
// fails unless violations are zero and at least one read was served by a
// replica.
func TestReadReplicaStormSmoke(t *testing.T) {
	storm(t, "-read-replica",
		"-procs", "2", "-readers", "2", "-max-lag", "64", "-shards", "2", "-keys", "8",
		"-dur", "2s")
}
