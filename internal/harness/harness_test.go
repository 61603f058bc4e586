package harness

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"detectable/internal/client"
)

var (
	buildOnce sync.Once
	serverBin string
	buildErr  error
)

// kvserverd builds the daemon once for the whole package (the directory is
// removed by TestMain) and skips the calling test under -short.
func kvserverd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns server processes; skipped in -short mode")
	}
	buildOnce.Do(func() {
		var dir string
		if dir, buildErr = os.MkdirTemp("", "harness-test-"); buildErr != nil {
			return
		}
		serverBin = filepath.Join(dir, "kvserverd")
		if out, err := exec.Command("go", "build", "-o", serverBin, "detectable/cmd/kvserverd").CombinedOutput(); err != nil {
			buildErr = errors.New(string(out))
		}
	})
	if buildErr != nil {
		t.Fatalf("build kvserverd: %v", buildErr)
	}
	return serverBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serverBin != "" {
		os.RemoveAll(filepath.Dir(serverBin))
	}
	os.Exit(code)
}

func start(t *testing.T, standby bool) *Cluster {
	t.Helper()
	c, err := Start(Config{
		Name: t.Name(), Bin: kvserverd(t), Dir: t.TempDir(),
		Shards: 2, Procs: 2,
	}, standby)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// alive reports whether pid still names a process (kill(pid, 0) ≠ ESRCH).
func alive(pid int) bool {
	p, err := os.FindProcess(pid)
	return err == nil && p.Signal(syscall.Signal(0)) == nil
}

func (c *Cluster) pids() []int {
	var pids []int
	for _, n := range []*node{c.primary, c.standby} {
		if n != nil {
			pids = append(pids, n.cmd.Process.Pid)
		}
	}
	return pids
}

// TestRestartKeepsAckedPut: a PUT whose verdict was released survives a
// SIGKILL and a restart from the same data directory, on the same address.
func TestRestartKeepsAckedPut(t *testing.T) {
	c := start(t, false)
	var err error
	defer c.Close(&err)
	addr, standby := c.Addrs()
	if standby != "" {
		t.Fatalf("a lone primary reports standby %q", standby)
	}
	put, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = put.PutRetry("k", 7); err != nil {
		t.Fatal(err)
	}
	put.Close() //nolint:errcheck
	if err = c.Restart(); err != nil {
		t.Fatal(err)
	}
	if again, _ := c.Addrs(); again != addr {
		t.Fatalf("restarted on %s, want the same address %s", again, addr)
	}
	get, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Close() //nolint:errcheck
	got, err := get.GetRetry("k")
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("k = %d after the restart, want the acked 7", got)
	}
}

// TestFailover: the roles swap, the promoted node answers at a higher
// fencing generation with everything the old primary had released, and the
// replacement standby on the freed address reaches synced.
func TestFailover(t *testing.T) {
	c := start(t, true)
	var err error
	defer c.Close(&err)
	a, b := c.Addrs()
	before, err := c.PrimaryStatus()
	if err != nil {
		t.Fatal(err)
	}
	w, err := client.DialFailover([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //nolint:errcheck
	if _, err = w.PutRetry("k", 7); err != nil {
		t.Fatal(err)
	}
	oldPrimary := c.pids()[0]

	gen, err := c.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if p, s := c.Addrs(); p != b || s != a {
		t.Fatalf("after failover primary=%s standby=%s, want them swapped (%s, %s)", p, s, b, a)
	}
	if alive(oldPrimary) {
		t.Errorf("old primary pid %d survived the failover", oldPrimary)
	}
	after, err := c.PrimaryStatus()
	if err != nil {
		t.Fatal(err)
	}
	if gen <= before.Generation || after.Generation != gen {
		t.Errorf("generation %d → promoted at %d, serving %d; want a higher one, served", before.Generation, gen, after.Generation)
	}
	if after.Replicas < 1 || after.ReplAcked < after.ReplSeq {
		t.Errorf("replacement standby not synced: replicas=%d seq=%d acked=%d", after.Replicas, after.ReplSeq, after.ReplAcked)
	}
	got, err := w.GetRetry("k")
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("k = %d on the promoted node, want the acked 7", got)
	}
}

// TestCloseReapsEveryChild: after Close on an error path and on a panic
// path (which it re-raises) no child is left, and a closed cluster spawns
// nothing more.
func TestCloseReapsEveryChild(t *testing.T) {
	t.Run("error", func(t *testing.T) {
		c := start(t, true)
		pids := c.pids()
		err := errors.New("the run failed")
		c.Close(&err)
		for _, pid := range pids {
			if alive(pid) {
				t.Errorf("pid %d alive after Close on an error path", pid)
			}
		}
		if c.Restart() == nil {
			t.Errorf("a closed cluster restarted its primary")
		}
		for _, pid := range c.pids() {
			if alive(pid) {
				t.Errorf("pid %d spawned after Close", pid)
			}
		}
	})
	t.Run("panic", func(t *testing.T) {
		c := start(t, true)
		pids := c.pids()
		var raised any
		func() {
			defer func() { raised = recover() }()
			var err error
			defer c.Close(&err)
			panic("the runner blew up")
		}()
		if raised != "the runner blew up" {
			t.Errorf("Close swallowed the panic: recovered %v", raised)
		}
		for _, pid := range pids {
			if alive(pid) {
				t.Errorf("pid %d alive after Close on a panic path", pid)
			}
		}
	})
}
