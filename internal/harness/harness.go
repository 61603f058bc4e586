// Package harness owns the lifecycle of spawned kvserverd processes for
// the storm and bench binaries (cmd/loadgen, cmd/kvbench). It is the only
// package that may exec a kvserverd: a node is one daemon on a fixed
// loopback address and data directory, and a Cluster is a primary
// plus an optional warm standby with the operations the storms are made of
// — restart from the same directory, wait-synced, SIGKILL+promote failover
// — and one deferred Close that reaps every child on every exit path.
package harness

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"detectable/internal/client"
)

// longWait bounds what must happen — a node accepting connections, a
// standby acking every replication barrier or answering PROMOTE; shortWait
// what is only given a chance — the sync before a failover's kill, a
// SIGTERMed node exiting by itself.
const (
	longWait  = 15 * time.Second
	shortWait = 5 * time.Second
)

// node is one kvserverd on a fixed address and data directory. Its
// incarnations come and go (start, kill, start again from the same
// directory); the address and directory stay.
type node struct {
	addr string
	args []string
	cmd  *exec.Cmd // current incarnation; nil before the first start
}

// freeAddr reserves a loopback port by binding and immediately releasing
// it, so every incarnation of a node listens on the same address.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// poll retries try every interval until it succeeds or timeout has passed,
// returning its last error.
func poll(timeout, interval time.Duration, try func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := try()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(interval)
	}
}

// waitUp polls the node's address until a TCP connect succeeds.
func (n *node) waitUp() error {
	return poll(longWait, 50*time.Millisecond, func() error {
		conn, err := net.DialTimeout("tcp", n.addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
		}
		return err
	})
}

// end reaps the current incarnation. Graceful is SIGTERM first, so shutdown
// stats print, with SIGKILL only if it lingers; otherwise SIGKILL at once:
// no shutdown path runs, only fsynced state survives. Safe on a node that
// is already dead or was never started (signals and Wait just error — the
// point is that no child outlives the run).
func (n *node) end(graceful bool) {
	if n == nil || n.cmd == nil {
		return
	}
	done := make(chan struct{})
	go func() { n.cmd.Wait(); close(done) }() //nolint:errcheck // ended on purpose
	if graceful {
		n.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // may already be dead
		select {
		case <-done:
			return
		case <-time.After(shortWait):
		}
	}
	n.cmd.Process.Kill() //nolint:errcheck // may already be dead
	<-done
}

// Config describes the servers a Cluster spawns.
type Config struct {
	Name   string // prefixes Close's diagnostics ("restart-storm")
	Bin    string // kvserverd binary
	Dir    string // a lone primary serves from Dir itself, a pair from Dir/node-N
	Shards int
	Procs  int
}

// Cluster is a durable primary and, when started with one, a warm standby
// replicating from it. Storm goroutines call Restart and Failover while the
// runner's deferred Close may fire on another goroutine (a panic unwinding
// it), so every change to which processes exist happens under mu, and
// nothing is spawned once Close has run.
type Cluster struct {
	cfg Config

	mu       sync.Mutex
	primary  *node
	standby  *node // nil for a lone primary
	nextNode int   // the next replacement standby serves from Dir/node-<nextNode>
	closed   bool
}

// Start spawns the primary and waits for it to accept connections; with
// standby it then spawns a replica behind it and waits until the replica
// has acked every replication barrier. A failed Start has already reaped
// whatever it spawned; after a successful one the caller defers Close.
func Start(cfg Config, standby bool) (_ *Cluster, err error) {
	c := &Cluster{cfg: cfg}
	defer func() {
		if err != nil {
			c.Close(&err)
		}
	}()
	dir := cfg.Dir
	if standby {
		dir = c.nodeDir()
	}
	if c.primary, err = c.newNode("", dir, ""); err != nil {
		return nil, err
	}
	if err := c.spawn(c.primary); err != nil {
		return nil, err
	}
	if err := c.primary.waitUp(); err != nil {
		return nil, fmt.Errorf("primary never came up: %w", err)
	}
	if !standby {
		return c, nil
	}
	if c.standby, err = c.newNode("", c.nodeDir(), c.primary.addr); err != nil {
		return nil, err
	}
	if err := c.spawn(c.standby); err != nil {
		return nil, err
	}
	if err := c.WaitSynced(longWait); err != nil {
		return nil, fmt.Errorf("standby never synced: %w", err)
	}
	return c, nil
}

// nodeDir names the next node's data directory under the base.
func (c *Cluster) nodeDir() string {
	dir := filepath.Join(c.cfg.Dir, fmt.Sprintf("node-%d", c.nextNode))
	c.nextNode++
	return dir
}

// newNode describes a server on addr (empty = a fresh loopback port)
// serving from dir, replicating from replicaOf unless that is empty.
func (c *Cluster) newNode(addr, dir, replicaOf string) (*node, error) {
	if addr == "" {
		var err error
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	args := []string{
		"-addr", addr,
		"-shards", strconv.Itoa(c.cfg.Shards),
		"-procs", strconv.Itoa(c.cfg.Procs),
		"-data", dir,
	}
	if replicaOf != "" {
		args = append(args, "-replica-of", replicaOf)
	}
	return &node{addr: addr, args: args}, nil
}

// spawn starts n's next incarnation unless the cluster is closed, inheriting
// stdout/stderr so recovery lines land in the run's output. n is one of the
// cluster's nodes, so Close finds whatever this starts.
func (c *Cluster) spawn(n *node) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("harness: cluster is closed")
	}
	cmd := exec.Command(c.cfg.Bin, n.args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	n.cmd = cmd
	return nil
}

// Addrs returns the serving node's address and the replica's ("" for a lone
// primary). A failover swaps the two; the set stays.
func (c *Cluster) Addrs() (primary, standby string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.standby != nil {
		standby = c.standby.addr
	}
	return c.primary.addr, standby
}

// Restart is the whole-process crash: SIGKILL the primary, start it again
// from the same data directory and address, wait for it to accept.
func (c *Cluster) Restart() error {
	c.mu.Lock()
	n := c.primary
	n.end(false)
	c.mu.Unlock()
	if err := c.spawn(n); err != nil {
		return err
	}
	if err := n.waitUp(); err != nil {
		return fmt.Errorf("server never came back: %w", err)
	}
	return nil
}

// WaitSynced polls the primary until a replica is attached and has acked
// every replication barrier — the point where promoting that replica
// cannot lose a released verdict, and where a measured window no longer
// includes a snapshot transfer.
func (c *Cluster) WaitSynced(timeout time.Duration) error {
	return poll(timeout, 100*time.Millisecond, func() error {
		st, err := c.PrimaryStatus()
		if err == nil && !(st.Replicas >= 1 && st.ReplSeq > 0 && st.ReplAcked >= st.ReplSeq) {
			err = fmt.Errorf("replicas=%d seq=%d acked=%d", st.Replicas, st.ReplSeq, st.ReplAcked)
		}
		return err
	})
}

// PrimaryStatus fetches the primary's replication role and progress over a
// throwaway observer session.
func (c *Cluster) PrimaryStatus() (client.ServerStatus, error) {
	addr, _ := c.Addrs()
	obs, err := client.DialObserver(addr)
	if err != nil {
		return client.ServerStatus{}, err
	}
	defer obs.Close() //nolint:errcheck
	return obs.ServerStats()
}

// promote asks the node at addr to promote, retrying until it answers (a
// standby may still be mid-recovery when the old primary dies), and returns
// the fencing generation it now serves under.
func promote(addr string) (gen uint64, err error) {
	err = poll(longWait, 100*time.Millisecond, func() error {
		obs, err := client.DialObserver(addr)
		if err != nil {
			return err
		}
		defer obs.Close() //nolint:errcheck
		gen, err = obs.Promote()
		return err
	})
	return gen, err
}

// Failover loses the machine, not just the process: let the standby's acks
// catch the stream tip (best effort — the kill is the point, not the
// sync), SIGKILL the primary, promote the standby, swap the roles, raise a
// fresh standby in the next node directory on the freed address and wait
// until it is synced. It returns the promoted node's fencing generation.
func (c *Cluster) Failover() (uint64, error) {
	c.WaitSynced(shortWait) //nolint:errcheck // best effort
	c.mu.Lock()
	old, promoted := c.primary, c.standby
	old.end(false)
	c.mu.Unlock()
	gen, err := promote(promoted.addr)
	if err != nil {
		return 0, fmt.Errorf("promote %s: %w", promoted.addr, err)
	}
	c.mu.Lock()
	fresh, err := c.newNode(old.addr, c.nodeDir(), promoted.addr)
	c.primary, c.standby = promoted, fresh
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := c.spawn(fresh); err != nil {
		return 0, fmt.Errorf("new standby: %w", err)
	}
	if err := c.WaitSynced(longWait); err != nil {
		return 0, fmt.Errorf("new standby never synced: %w", err)
	}
	return gen, nil
}

// Close owns the spawned servers' lifetime on every exit path, and must be
// deferred directly (`defer c.Close(&err)`) so it can see a panic: a panic
// unwinding the caller SIGKILLs and reaps both nodes and re-panics; an
// error does the same and says where the data directories were left; a
// clean run stops the primary gracefully (SIGTERM, so its shutdown stats
// print) and kills the standby, which has nothing to flush. No run leaves
// an orphaned kvserverd holding a data directory, and nothing can be
// spawned afterwards. The directories themselves are never removed.
func (c *Cluster) Close(errp *error) {
	r := recover()
	c.mu.Lock()
	c.closed = true
	c.primary.end(r == nil && *errp == nil)
	c.standby.end(false)
	c.mu.Unlock()
	switch {
	case r != nil:
		fmt.Fprintf(os.Stderr, "%s: panic; servers SIGKILLed and reaped, data dirs retained at %s\n", c.cfg.Name, c.cfg.Dir)
		panic(r)
	case *errp != nil:
		fmt.Fprintf(os.Stderr, "%s: failed; servers SIGKILLed and reaped, data dirs retained at %s\n", c.cfg.Name, c.cfg.Dir)
	}
}
