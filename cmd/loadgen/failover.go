package main

import (
	"fmt"
	"time"

	"detectable/internal/client"
	"detectable/internal/harness"
	"detectable/internal/runtime"
)

// runFailoverStorm is the primary/backup failover mode: it launches a
// durable kvserverd primary plus a warm standby replicating from it
// (docs/REPLICATION.md), drives the usual verified workload through
// failover-aware clients, and repeatedly SIGKILLs the primary
// mid-workload, promotes the standby and brings up a fresh standby behind
// the new primary. Workers ride each failover on the
// client's multi-address redial path: the resumed session lands on the
// promoted replica and replays its replicated outcome window
// byte-identically, so the bar is unchanged — zero detectability
// violations, now across node failures rather than process restarts.
//
// Each cycle also runs a deterministic canary: a client that severs its
// own connection right after sending a PUT, immediately before the
// primary is SIGKILLed. The canary's reply is lost with the old primary,
// so its definite outcome can only come from the promoted replica's
// recovered window — the run requires the replicas' recovered-replay
// counters to end above zero, proving at least one verdict was served
// from replicated state. -failovers 0 kills and promotes nothing: a durable
// primary gated by its sync standby, under load.
func runFailoverStorm(bin, baseDir string, cfg *wlCfg,
	failovers int, failoverEvery time.Duration) (err error) {
	if failovers < 0 {
		return fmt.Errorf("need -failovers ≥ 0 (got %d)", failovers)
	}
	dial := func(addrs []string) (*client.Client, error) { return ridesFailover(client.DialFailover(addrs)) }
	// Two slots beyond the workload's: one for each cycle's canary session
	// and one for the storm's persistent prober.
	st, cluster, done, err := spawn(cfg, "failover-storm", bin, baseDir, 2, true,
		fmt.Sprintf("failovers≥%d every=%s", failovers, failoverEvery), dial)
	if err != nil {
		return err
	}
	defer done(&err)
	// The two addresses stay through every failover; only the roles swap.
	addrA, addrB := cluster.Addrs()
	newClient := func() (*client.Client, error) { return dial([]string{addrA, addrB}) }
	// The prober confirms each canary's commit is visible (and therefore,
	// with the synchronous subscription, acked by the standby) before the
	// storm pulls the trigger.
	prober, err := newClient()
	if err != nil {
		return fmt.Errorf("dial prober: %w", err)
	}
	defer prober.Close() //nolint:errcheck

	// The storm: arm a canary whose reply dies with the primary, fail over,
	// verify the canary's verdict was recovered on the new primary. It keeps
	// failing over until both the duration has elapsed and the minimum cycle
	// count is met. replicaServed sums recovered-window replays, sampled
	// once per node, right before it dies (or the run ends).
	var (
		cycles        int
		replicaServed uint64
	)
	if err := st.runWorkers(cfg.spec, func(deadline time.Time) error {
		for failovers > 0 {
			time.Sleep(failoverEvery)
			if time.Now().After(deadline) && cycles >= failovers {
				replicaServed += sampleReplays(cluster)
				return nil
			}
			cycle := cycles + 1
			canary, err := armCanary(newClient, prober, cycle)
			if err != nil {
				return fmt.Errorf("failover %d: %w", cycle, err)
			}
			replicaServed += sampleReplays(cluster)
			gen, err := cluster.Failover()
			if err != nil {
				return fmt.Errorf("failover %d: %w", cycle, err)
			}
			if err := canary.check(); err != nil {
				return fmt.Errorf("failover %d: %w", cycle, err)
			}
			cycles++
			if cfg.verbose {
				promoted, _ := cluster.Addrs()
				fmt.Printf("failover %d: promoted %s generation=%d\n", cycle, promoted, gen)
			}
		}
		time.Sleep(time.Until(deadline))
		return nil
	}); err != nil {
		return err
	}

	return st.finish(func() {
		fmt.Printf("failover-storm: %s elapsed=%s\n", cfg.descr(cfg.shards), st.elapsed.Round(time.Millisecond))
		fmt.Printf("aggregate: %d ops (%.0f ops/sec) across %d kill+promote cycles, %d session resumes, replica-served=%d\n",
			st.ops.Load(), float64(st.ops.Load())/st.elapsed.Seconds(), cycles, st.resumes(), replicaServed)
	}, "every operation resolved to a definite outcome across failovers, zero violations",
		require(cycles >= failovers, "only %d failover cycles completed (wanted ≥ %d)", cycles, failovers),
		require(failovers == 0 || replicaServed > 0, "no verdict was served from a replica's recovered outcome window (expected at least the canaries)"))
}

// ridesFailover sizes a freshly dialed session's redial budget to out-wait
// a kill+promote cycle; its call timeout turns a wedged node into a redial
// instead of a hang.
func ridesFailover(c *client.Client, err error) (*client.Client, error) {
	if err == nil {
		c.SetRedialPolicy(600, 100*time.Millisecond)
		c.SetCallTimeout(2 * time.Second)
	}
	return c, err
}

// canary is one failover cycle's deterministic witness: a PUT whose reply
// is lost with the old primary.
type canary struct {
	c    *client.Client
	key  string
	val  int
	done chan struct{} // closed once out and err hold the PUT's result
	out  runtime.Outcome[int]
	err  error
}

// armCanary opens a session that severs its own connection right after
// sending a PUT, and returns once the write is visible — its verdict
// released, which with the synchronous subscription means fsynced on both
// nodes. Bounded: under heavy load the canary's own redial can outrun the
// prober and resolve first, which is fine; the re-issue after promotion
// still proves the recovered window.
func armCanary(dial func() (*client.Client, error), prober *client.Client, cycle int) (*canary, error) {
	c, err := dial()
	if err != nil {
		return nil, fmt.Errorf("canary dial: %w", err)
	}
	cn := &canary{c: c, key: fmt.Sprintf("canary-%d", cycle), val: 1_000_000 + cycle, done: make(chan struct{})}
	c.KillAfterNextSend()
	go func() {
		defer close(cn.done)
		if cn.out, cn.err = c.Put(cn.key, cn.val); cn.err == nil && !definite(cn.out.Status) {
			cn.err = fmt.Errorf("canary outcome not definite: %v", cn.out.Status)
		}
	}()
	for visDeadline := time.Now().Add(5 * time.Second); time.Now().Before(visDeadline); {
		if got, perr := prober.GetRetry(cn.key); perr == nil && got == cn.val {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cn, nil
}

// check runs after the failover. A linearized canary crossed the
// replication barrier before the old primary died; the promoted replica
// must serve it back. First re-issue the exact request bytes — same
// session, same request ID — now that the old primary cannot answer: the
// replay must come from the promoted node's recovered outcome window,
// byte-identically, and bumps the counter the run's verdict accounting
// requires.
func (cn *canary) check() error {
	<-cn.done
	if cn.err != nil {
		return fmt.Errorf("canary: %w", cn.err)
	}
	if cn.out.Status.Linearized() {
		out2, err := cn.c.ReissueLast()
		if err != nil {
			return fmt.Errorf("canary re-issue: %w", err)
		}
		if out2.Status != cn.out.Status || out2.Resp != cn.out.Resp {
			return fmt.Errorf("canary replay diverged: got %v/%d, want %v/%d",
				out2.Status, out2.Resp, cn.out.Status, cn.out.Resp)
		}
		got, err := cn.c.GetRetry(cn.key)
		if err != nil {
			return fmt.Errorf("canary readback: %w", err)
		}
		if got != cn.val {
			return fmt.Errorf("canary readback %s=%d, want %d", cn.key, got, cn.val)
		}
	}
	cn.c.Close() //nolint:errcheck
	return nil
}

// sampleReplays reads the primary's recovered-window replay counter, the
// count of verdicts it served out of an outcome window it did not record
// itself — replication's proof of work. Best-effort: a node that cannot
// answer contributes zero.
func sampleReplays(cluster *harness.Cluster) uint64 {
	st, _ := cluster.PrimaryStatus() //nolint:errcheck // zero on error
	return st.RecoveredReplays
}
