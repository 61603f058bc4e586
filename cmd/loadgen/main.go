// Command loadgen drives a configurable workload against the sharded
// detectable key-value store (internal/shardkv) and reports aggregate and
// per-shard throughput.
//
// With the default uniform distribution each process owns a disjoint slice
// of the key space and tracks, in volatile memory, the value every one of
// its keys must hold given the detectable verdict of each operation: a
// linearized put/del updates the expectation, a definite fail leaves it
// unchanged. Reads and a final sweep compare the store against the
// expectation, so any lost or duplicated effect — a detectability
// violation — is counted and fails the run. The crash-storm mix
// additionally fails random single shards from a storm goroutine and
// injects planned crashes into individual operations; the run still must
// end with zero violations: every crashed operation resolves to a definite
// outcome.
//
// With -dist zipf every process draws from the FULL key space through a
// seeded Zipfian chooser (-theta sets the skew; rank 0 is the hottest
// key), so processes genuinely contend on shared hot keys — the regime the
// lock-free key table and striped telemetry exist for. Exact expectations
// are impossible under sharing, so verification switches to a per-key
// write registry (see sharedTracker in dist.go) that still convicts every
// phantom value, every visible failed write and every provably stale zero;
// the bar stays zero violations. -mput N turns the write side of any mix
// into N-entry MultiPut batches (the large-mutation mix), each entry
// verified individually.
//
// With -remote the same workload and the same expected-value verification
// run against a live kvserverd over TCP instead of the in-process store.
// The crash-storm mix then additionally injects connection kills: workers
// randomly sever their own TCP connection (including right after sending a
// request, so the reply is lost mid-operation) and rely on session
// resumption to recover the original persisted verdict — the bar is still
// zero violations. `-remote self` starts an in-process server on a
// loopback port first, so the full wire path is exercised with no external
// daemon.
//
// Usage:
//
//	loadgen [-mix read-heavy|write-heavy|mixed|crash-storm] [-procs 4]
//	        [-shards 4] [-keys 64] [-dur 1s] [-seed 1] [-v]
//	        [-dist uniform|zipf] [-theta 0.99] [-mput 0]
//	        [-remote host:port | -remote self]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/nvm"
	"detectable/internal/shardkv"
)

// mixSpec is a workload mix as cumulative percentages plus crash knobs.
type mixSpec struct {
	getPct, putPct int // remainder is del
	// planEvery injects a planned crash into roughly one in planEvery
	// operations (0 = never); stormEvery crashes one random shard on that
	// period (0 = no storm), time-based so the crash rate is comparable
	// across machines. killEvery severs the worker's own TCP connection on
	// roughly one in killEvery operations (remote mode only, 0 = never) —
	// half the kills fire after the request is sent but before the reply
	// is read, forcing the session-resume path mid-operation.
	planEvery  int
	stormEvery time.Duration
	killEvery  int
}

var mixes = map[string]mixSpec{
	"read-heavy":  {getPct: 90, putPct: 10},
	"write-heavy": {getPct: 10, putPct: 80},
	"mixed":       {getPct: 50, putPct: 40},
	"crash-storm": {getPct: 40, putPct: 50, planEvery: 8, stormEvery: time.Millisecond, killEvery: 24},
}

func main() {
	mix := flag.String("mix", "mixed", "workload mix: read-heavy, write-heavy, mixed or crash-storm")
	procs := flag.Int("procs", 4, "concurrent processes (per shard system)")
	shards := flag.Int("shards", 4, "number of independent shards")
	keys := flag.Int("keys", 64, "total key-space size (split across processes)")
	dur := flag.Duration("dur", time.Second, "run duration")
	seed := flag.Int64("seed", 1, "randomness seed")
	verbose := flag.Bool("v", false, "print the per-shard breakdown")
	dist := flag.String("dist", "uniform", "key distribution: uniform (disjoint per-process keys) or zipf (shared hot keys)")
	theta := flag.Float64("theta", 0.99, "Zipfian skew exponent for -dist zipf (0 = uniform over the shared space)")
	mput := flag.Int("mput", 0, "batch the write side of the mix into MultiPuts of this many entries (0 = single-key puts)")
	remote := flag.String("remote", "", "drive a kvserverd at host:port instead of the in-process store (\"self\" starts one on a loopback port)")
	restartStorm := flag.Bool("restart-storm", false, "whole-process crash mode: spawn a durable kvserverd (-server-bin, -data) and SIGKILL/restart it mid-workload")
	serverBin := flag.String("server-bin", "", "kvserverd binary for -restart-storm")
	dataDir := flag.String("data", "", "durable data directory for -restart-storm (empty = fresh temp dir)")
	restarts := flag.Int("restarts", 5, "minimum SIGKILL/restart cycles for -restart-storm")
	restartEvery := flag.Duration("restart-every", 700*time.Millisecond, "delay between SIGKILLs for -restart-storm")
	serverArgs := flag.String("server-args", "", "extra kvserverd flags for -restart-storm/-failover-storm, space-separated (e.g. \"-epoch-interval 2ms\")")
	failoverStorm := flag.Bool("failover-storm", false, "primary/backup failover mode: spawn a durable primary plus a replicating standby (-server-bin, -data) and SIGKILL/promote mid-workload")
	failovers := flag.Int("failovers", 3, "minimum SIGKILL/promote cycles for -failover-storm")
	failoverEvery := flag.Duration("failover-every", 900*time.Millisecond, "delay between primary SIGKILLs for -failover-storm")
	readReplica := flag.Bool("read-replica", false, "read-replica mode: writes at a durable primary, bounded-stale verified reads at a replicating standby (-server-bin, -data), one SIGKILL+promote mid-run with readers live")
	readerProcs := flag.Int("readers", 2, "GET-only reader goroutines for -read-replica")
	maxLag := flag.Uint64("max-lag", 64, "reader staleness bound in commit barriers for -read-replica (0 = unbounded)")
	flag.Parse()
	cfg := wlCfg{
		mixName: *mix, dist: *dist, theta: *theta, mput: *mput,
		procs: *procs, shards: *shards, keys: *keys,
		dur: *dur, seed: *seed, verbose: *verbose,
	}
	err := cfg.validate()
	nServerModes := 0
	for _, on := range []bool{*restartStorm, *failoverStorm, *readReplica} {
		if on {
			nServerModes++
		}
	}
	switch {
	case err != nil:
	case nServerModes > 1:
		err = fmt.Errorf("pick one of -restart-storm, -failover-storm and -read-replica")
	case nServerModes > 0 && *remote != "":
		err = fmt.Errorf("-restart-storm/-failover-storm/-read-replica spawn their own servers; drop -remote")
	case *readReplica:
		err = runReadReplicaStorm(*serverBin, *dataDir, &cfg, *readerProcs, *maxLag, *serverArgs)
	case *failoverStorm:
		err = runFailoverStorm(*serverBin, *dataDir, &cfg, *failovers, *failoverEvery, *serverArgs)
	case *restartStorm:
		err = runRestartStorm(*serverBin, *dataDir, &cfg, *restarts, *restartEvery, *serverArgs)
	case *remote != "":
		err = runRemote(*remote, &cfg)
	default:
		err = run(&cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(cfg *wlCfg) error {
	spec := cfg.spec
	s := shardkv.New(cfg.shards, cfg.procs)
	var indefinite atomic.Uint64
	names := keyNames(cfg.keys)
	violations := newViolationLog(names)
	var tracker *sharedTracker
	if cfg.shared() {
		tracker = newSharedTracker(cfg.keys)
		// Zero the shared key space first: registry verification classifies
		// every observed value, so a value left by an earlier run against
		// the same store would read as a phantom.
		for _, key := range names {
			s.PutRetry(0, key, 0)
		}
	}

	// Per-shard crash storm: fail one random shard at a time; the others
	// keep serving.
	stop := make(chan struct{})
	var storm sync.WaitGroup
	if spec.stormEvery > 0 {
		storm.Add(1)
		go func() {
			defer storm.Done()
			rng := rand.New(rand.NewSource(cfg.seed ^ 0x5707))
			tick := time.NewTicker(spec.stormEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					s.CrashShard(rng.Intn(cfg.shards))
				}
			}
		}()
	}

	expected := make([]map[string]int, cfg.procs)
	start := time.Now()
	deadline := start.Add(cfg.dur)
	var wg sync.WaitGroup
	for p := 0; p < cfg.procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := cfg.workerRNG(pid)
			ch := cfg.chooserFor(pid, rng)
			v := newVerify(pid, tracker, violations, &indefinite)
			nextVal := 0
			newVal := func() int { nextVal++; return pid*1_000_000_000 + nextVal }
			var entries []shardkv.KV
			var ki []int
			for time.Now().Before(deadline) {
				k := ch.next()
				key := names[k]
				var plan nvm.CrashPlan
				if spec.planEvery > 0 && rng.Intn(spec.planEvery) == 0 {
					plan = nvm.CrashAtStep(uint64(1 + rng.Intn(14)))
				}
				switch r := rng.Intn(100); {
				case r < spec.getPct:
					pre := v.readBegin(k)
					v.get(k, key, pre, s.Get(pid, key, plan))
				case r < spec.getPct+spec.putPct:
					if cfg.mput > 0 {
						entries, ki = entries[:0], ki[:0]
						for j := 0; j < cfg.mput; j++ {
							kk := ch.next()
							val := newVal()
							entries = append(entries, shardkv.KV{Key: names[kk], Val: val})
							ki = append(ki, kk)
							v.beginPut(kk, val)
						}
						for j, out := range s.MultiPut(pid, entries) {
							v.put(ki[j], entries[j].Key, entries[j].Val, out)
						}
					} else {
						val := newVal()
						v.beginPut(k, val)
						v.put(k, key, val, s.Put(pid, key, val, plan))
					}
				default:
					v.beginDel(k)
					v.del(k, key, s.Del(pid, key, plan))
				}
			}
			expected[pid] = v.exp
		}(p)
	}
	wg.Wait()
	// Snapshot throughput over the measured window only; the verification
	// sweep below is bookkeeping, not serving.
	elapsed := time.Since(start)
	snaps := make([]shardkv.StatsSnapshot, cfg.shards)
	for i := range snaps {
		snaps[i] = s.StatsFor(i)
	}
	close(stop)
	storm.Wait()

	finalSweep(violations, tracker, expected, func(pid int, key string) (int, error) { //nolint:errcheck
		return s.GetRetry(pid, key), nil
	})

	report(snaps, cfg, elapsed)
	if n := indefinite.Load(); n > 0 {
		return fmt.Errorf("%d operations ended without a definite outcome", n)
	}
	if n := violations.Load(); n > 0 {
		return fmt.Errorf("%d detectability violations (lost or duplicated effects)", n)
	}
	fmt.Println("detectability: every operation resolved to a definite outcome, zero violations")
	return nil
}

func report(snaps []shardkv.StatsSnapshot, cfg *wlCfg, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs == 0 {
		secs = 1 // a -dur=0 run serves no measured window at all
	}
	var total shardkv.StatsSnapshot
	for _, st := range snaps {
		total = total.Add(st)
	}
	distDesc := cfg.dist
	if cfg.shared() {
		distDesc = fmt.Sprintf("zipf(theta=%g)", cfg.theta)
	}
	fmt.Printf("mix=%s dist=%s mput=%d procs=%d shards=%d elapsed=%s\n",
		cfg.mixName, distDesc, cfg.mput, cfg.procs, len(snaps), elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate: %d ops (%.0f ops/sec) — gets=%d puts=%d dels=%d\n",
		total.Ops(), float64(total.Ops())/secs, total.Gets, total.Puts, total.Dels)
	fmt.Printf("verdicts:  ok=%d recovered=%d failed=%d not-invoked=%d retries=%d\n",
		total.OK, total.Recovered, total.Failed, total.NotInvoked, total.Retries)
	fmt.Printf("crashes:   injected=%d interruptions-observed=%d\n",
		total.CrashesInjected, total.CrashesSeen)
	if !cfg.verbose {
		return
	}
	fmt.Printf("%6s %10s %12s %10s %8s %8s %8s\n", "shard", "ops", "ops/sec", "recovered", "failed", "crashes", "retries")
	for i, st := range snaps {
		fmt.Printf("%6d %10d %12.0f %10d %8d %8d %8d\n",
			i, st.Ops(), float64(st.Ops())/secs, st.Recovered, st.Failed, st.CrashesInjected, st.Retries)
	}
}
