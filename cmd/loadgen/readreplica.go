package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"detectable/internal/client"
)

// runReadReplicaStorm is the read-replica mode: a durable primary takes
// the write load while a replicating standby serves GET traffic through
// read-only sessions (docs/REPLICATION.md §read replicas). Writers' mutations
// are checked exactly as in the other storms; readers check every
// replica-served value under the bounded-staleness contract — a read may
// be stale, but a phantom value or a resurrected failed write convicts
// (linearize.Sweep.ReadStale). Mid-run the storm
// SIGKILLs the primary and promotes the standby with all readers still
// connected: writers fail over on the client's replica-aware redial path,
// readers ride the ReadClient's lag-bounded routing, and a fresh standby
// is raised on the freed address so read traffic can move back off the
// promoted node. The bar is the usual one — zero detectability violations
// — plus proof of work: at least one read must actually have been served
// by a replica.
func runReadReplicaStorm(bin, baseDir string, cfg *wlCfg,
	readers int, maxLag uint64) (err error) {
	if readers < 1 {
		return fmt.Errorf("need -readers ≥ 1 (got %d)", readers)
	}
	// Writers dial the primary block with the standby as a promotion
	// candidate only: a mutation is never rotated onto a live standby
	// (guaranteed ErrNotPrimary), but after the kill the promoted node is
	// found in the replica block.
	st, cluster, done, err := spawn(cfg, "read-replica", bin, baseDir, 0, true,
		fmt.Sprintf("writers=%d readers=%d max-lag=%d", cfg.procs, readers, maxLag),
		func(addrs []string) (*client.Client, error) {
			return ridesFailover(client.DialFailoverWithReplicas(addrs[:1], addrs[1:]))
		})
	if err != nil {
		return err
	}
	defer done(&err)
	addrA, addrB := cluster.Addrs()
	primaries, replicas := []string{addrA}, []string{addrB}
	st.violations.armStale()

	// Readers: GET-only sessions routed replica-first, each response
	// verified under bounded staleness. Readers never dial a mutation, so
	// a kill+promote costs them at most a reconnect sweep.
	var readOps, replicaReads atomic.Uint64
	readLoops := make([]func(stop <-chan struct{}) error, readers)
	for rid := range readLoops {
		readLoops[rid] = func(stop <-chan struct{}) error {
			rc, err := client.DialReadPreference(primaries, replicas,
				client.WithMaxLag(maxLag), client.WithLagInterval(50*time.Millisecond))
			if err != nil {
				return fmt.Errorf("reader %d: dial: %w", rid, err)
			}
			defer rc.Close() //nolint:errcheck
			rng := cfg.workerRNG(cfg.procs + rid)
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				k := rng.Intn(cfg.keys)
				out, err := rc.Get(st.violations.names[k])
				if err != nil {
					// Mid-failover both nodes can refuse for a moment; retry
					// rather than convict — a persistently dead cluster fails
					// the run through the writers.
					time.Sleep(20 * time.Millisecond)
					continue
				}
				st.violations.stale(k, out.Resp, rid, rc.OnReplica())
				readOps.Add(1)
				if rc.OnReplica() {
					replicaReads.Add(1)
				}
			}
		}
	}

	// Writers run the one worker loop on a put/del mix: reads stay out of
	// the write tier — that is the point. The storm is one SIGKILL+promote
	// cycle a third of the way in, readers live throughout, with a fresh
	// standby on the freed address so the ReadClient can route back onto a
	// replica (exercising the snapshot resync path — the rebuilt view reports
	// applied=0 until its first barrier, which the lag bound treats as
	// maximally stale); the remaining window is served with the rebuilt
	// replica in play.
	if err := st.runWorkers(mixSpec{getPct: 0, putPct: 80}, func(deadline time.Time) error {
		time.Sleep(cfg.dur / 3) // let both tiers serve steady-state first
		gen, err := cluster.Failover()
		if err != nil {
			return err
		}
		if cfg.verbose {
			promoted, _ := cluster.Addrs()
			fmt.Printf("read-replica: promoted %s generation=%d\n", promoted, gen)
		}
		time.Sleep(time.Until(deadline))
		return nil
	}, readLoops...); err != nil {
		return err
	}

	// The sweep in finish reads at the promoted primary with the strict
	// (non-stale) check — the write tier's state is the authority the
	// replicas were a bounded-stale prefix of.
	return st.finish(func() {
		fmt.Printf("read-replica: writers=%d readers=%d elapsed=%s\n", cfg.procs, readers, st.elapsed.Round(time.Millisecond))
		fmt.Printf("aggregate: %d writes, %d reads (%d served by a replica, %.0f%%)\n",
			st.ops.Load(), readOps.Load(), replicaReads.Load(),
			100*float64(replicaReads.Load())/float64(max(readOps.Load(), 1)))
	}, "zero violations — every replica read bounded-stale, never phantom",
		require(replicaReads.Load() > 0, "no read was served by a replica (the mode under test never engaged)"))
}
