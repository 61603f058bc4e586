package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"detectable/internal/client"
)

// runReadReplicaBench measures read-replica scaling (docs/REPLICATION.md
// §read replicas): a durable primary plus a replicating standby, a light
// continuous write load at the primary so the replication stream is live
// during every measured window, and GET-only read-only sessions as the
// measured traffic. Two sections land in the -json document:
//
//   - "read-primary-only": n read connections, all at the primary — the
//     single-node read capacity under write load.
//   - "read-replica": the same n at the primary plus n more at the
//     standby — the capacity after adding the second node.
//
// The claim under test (and gated in CI against BENCH_PR10.json) is that
// the second node adds read capacity: the split phase's aggregate
// throughput must beat the primary-only phase at the same per-node
// connection count, and the replica must have served a nonzero share.
func runReadReplicaBench(srv *serverSpec, connCounts []int, w load, jsonOut string) (err error) {
	if srv.bin == "" {
		return fmt.Errorf("-read-replica needs -server-bin (the bench spawns both nodes itself)")
	}
	// Read-only sessions lease no process slot, so the slot budget only
	// covers the warm-up client and the background writer.
	cluster, err := srv.start(4, true)
	if err != nil {
		return err
	}
	defer srv.rmTemp(&err)
	defer cluster.Close(&err)
	addr, raddr := cluster.Addrs()
	fmt.Printf("read-replica bench: primary=%s replica=%s dur=%s keys=%d dist=%s theta=%g\n",
		addr, raddr, w.dur, w.keys, w.dist, w.theta)

	// Warm every key, then let the replica ack the warm-up barriers before
	// measuring.
	warmClient, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer warmClient.Close() //nolint:errcheck
	if err := warmKeys(warmClient, w.keys); err != nil {
		return err
	}
	if err := cluster.WaitSynced(15 * time.Second); err != nil {
		return fmt.Errorf("replica never caught up after warm-up: %w", err)
	}

	// The measured traffic is GET-only and closed-loop, whatever the flags say.
	w.getPct, w.mput, w.rate = 100, 0, 0
	primaryOnly, split := w.section(srv.args), w.section(srv.args)
	for _, n := range connCounts {
		for _, ph := range []struct {
			sec    *runSection
			rconns int
		}{{primaryOnly, 0}, {split, n}} {
			r, err := withWriteLoad(addr, w.seed, func() (phaseResult, error) {
				return benchReadPhase(addr, raddr, n, ph.rconns, w)
			})
			if err != nil {
				return fmt.Errorf("read conns=%d+%d: %w", n, ph.rconns, err)
			}
			ph.sec.Phases = append(ph.sec.Phases, r)
		}
	}
	if jsonOut != "" {
		if err := mergeJSON(jsonOut, "read-primary-only", primaryOnly); err != nil {
			return err
		}
		return mergeJSON(jsonOut, "read-replica", split)
	}
	return nil
}

// withWriteLoad runs phase while one background connection keeps mutating
// the key space at the primary, so the measured reads race a live
// replication stream rather than a frozen view.
func withWriteLoad(primary string, seed int64, phase func() (phaseResult, error)) (phaseResult, error) {
	w, err := client.Dial(primary)
	if err != nil {
		return phaseResult{}, fmt.Errorf("dial writer: %w", err)
	}
	stop := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x77))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Put("bench-"+strconv.Itoa(rng.Intn(64)), i+1); err != nil {
				return // the phase's own errors are the ones that matter
			}
		}
	}()
	r, perr := phase()
	close(stop)
	done.Wait()
	w.Close() //nolint:errcheck
	return r, perr
}

// benchReadPhase drives pconns closed-loop GET streams at the primary and
// rconns at the replica, all over read-only sessions, and reports the
// aggregate plus the replica's share.
func benchReadPhase(primary, replica string, pconns, rconns int, w load) (phaseResult, error) {
	clients := make([]*client.Client, pconns+rconns)
	for i := range clients {
		target := primary
		if i >= pconns {
			target = replica
		}
		c, err := client.DialReadOnly(target)
		if err != nil {
			return phaseResult{}, fmt.Errorf("dial read-only %d (%s): %w", i, target, err)
		}
		defer c.Close() //nolint:errcheck
		clients[i] = c
	}
	lats, elapsed, err := drive(clients, w)
	if err != nil {
		return phaseResult{}, err
	}
	r, err := summarize(lats, elapsed)
	if err != nil {
		return phaseResult{}, err
	}
	r.ReplicaConns = rconns
	for _, l := range lats[pconns:] {
		r.ReplicaOps += len(l)
	}
	fmt.Printf("reads: primary-conns=%d replica-conns=%d ops=%d (replica %d) throughput=%.0f ops/sec p50=%s p99=%s\n",
		pconns, rconns, r.Ops, r.ReplicaOps, r.Throughput,
		time.Duration(r.P50Ns), time.Duration(r.P99Ns))
	return r, nil
}
