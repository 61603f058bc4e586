package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/client"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
)

// runFailoverStorm is the primary/backup failover mode: it launches a
// durable kvserverd primary plus a warm standby replicating from it
// (docs/REPLICATION.md), drives the usual per-process expected-value
// workload through failover-aware clients, and repeatedly SIGKILLs the
// primary mid-workload, promotes the standby and brings up a fresh
// standby behind the new primary. Workers ride each failover on the
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
// from replicated state.
func runFailoverStorm(bin, baseDir string, cfg *wlCfg,
	failovers int, failoverEvery time.Duration, serverArgs string) (err error) {
	spec := cfg.spec
	procs := cfg.procs
	if failovers < 1 {
		return fmt.Errorf("need -failovers ≥ 1 (got %d)", failovers)
	}
	if bin == "" {
		return fmt.Errorf("-failover-storm needs -server-bin pointing at a kvserverd binary (go build -o kvserverd ./cmd/kvserverd)")
	}
	if baseDir == "" {
		d, err := os.MkdirTemp("", "failover-storm-data-")
		if err != nil {
			return err
		}
		baseDir = d
	}
	fmt.Printf("failover-storm: data=%s server=%s failovers≥%d every=%s\n", baseDir, bin, failovers, failoverEvery)

	addrA, err := freeAddr()
	if err != nil {
		return err
	}
	addrB, err := freeAddr()
	if err != nil {
		return err
	}
	addrs := []string{addrA, addrB}
	// Two slots beyond the workload's: one for each cycle's canary session
	// and one for the storm's persistent prober.
	slots := procs + 2
	baseArgs := func(addr, dir string) []string {
		args := []string{
			"-addr", addr,
			"-shards", strconv.Itoa(cfg.shards),
			"-procs", strconv.Itoa(slots),
			"-data", dir,
		}
		return append(args, strings.Fields(serverArgs)...)
	}
	nodeDir := func(n int) string { return filepath.Join(baseDir, fmt.Sprintf("node-%d", n)) }

	// primary / standby track the two live incarnations; every exit path
	// reaps both so no run leaves an orphaned kvserverd pair. The node
	// data directories are always retained for post-mortem inspection.
	primary := &serverProc{}
	standby := &serverProc{}
	primaryAddr, standbyAddr := addrA, addrB
	defer func() {
		if r := recover(); r != nil {
			primary.killWait()
			standby.killWait()
			fmt.Fprintf(os.Stderr, "failover-storm: panic; servers SIGKILLed and reaped, data dirs retained at %s\n", baseDir)
			panic(r)
		}
		if err != nil {
			primary.killWait()
			standby.killWait()
			fmt.Fprintf(os.Stderr, "failover-storm: failed; servers SIGKILLed and reaped, data dirs retained at %s\n", baseDir)
			return
		}
		stopServer(primary.get())
		standby.killWait() // an unpromoted standby has nothing to flush
	}()

	first, err := startServer(bin, baseArgs(primaryAddr, nodeDir(0)))
	if err != nil {
		return err
	}
	primary.set(first)
	if err := waitUp(primaryAddr, 10*time.Second); err != nil {
		return fmt.Errorf("primary never came up: %w", err)
	}
	second, err := startServer(bin, append(baseArgs(standbyAddr, nodeDir(1)), "-replica-of", primaryAddr))
	if err != nil {
		return err
	}
	standby.set(second)
	if err := waitSynced(primaryAddr, 15*time.Second); err != nil {
		return fmt.Errorf("standby never synced: %w", err)
	}

	newClient := func() (*client.Client, error) {
		c, err := client.DialFailover(addrs)
		if err != nil {
			return nil, err
		}
		// Redial budget sized to out-wait a kill+promote cycle; the call
		// timeout turns a wedged node into a redial instead of a hang.
		c.SetRedialPolicy(600, 100*time.Millisecond)
		c.SetCallTimeout(2 * time.Second)
		return c, nil
	}
	clients := make([]*client.Client, procs)
	for p := range clients {
		if clients[p], err = newClient(); err != nil {
			return fmt.Errorf("dial worker %d: %w", p, err)
		}
	}
	// The prober confirms each canary's commit is visible (and therefore,
	// with the synchronous subscription, acked by the standby) before the
	// storm pulls the trigger.
	prober, err := newClient()
	if err != nil {
		return fmt.Errorf("dial prober: %w", err)
	}
	defer prober.Close() //nolint:errcheck

	var (
		indefinite    atomic.Uint64
		cycles        atomic.Uint64
		replicaServed atomic.Uint64 // recovered-window replays, summed per node just before its death
		stop          = make(chan struct{})
		stormErr      error
	)
	start := time.Now()
	deadline := start.Add(cfg.dur)

	// The storm: arm a canary whose reply dies with the primary, SIGKILL
	// the primary, promote the standby, verify the canary's verdict was
	// recovered on the new primary, then raise a fresh standby on the
	// freed address. The loop keeps failing over until both the duration
	// has elapsed and the minimum cycle count is met.
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		defer close(stop)
		defer func() {
			if r := recover(); r != nil {
				stormErr = fmt.Errorf("storm goroutine panicked: %v", r)
			}
		}()
		nextNode := 2
		for {
			time.Sleep(failoverEvery)
			if time.Now().After(deadline) && int(cycles.Load()) >= failovers {
				// Final primary: bank its recovered-replay count before the
				// run's verdict accounting closes.
				replicaServed.Add(sampleReplays(primaryAddr))
				return
			}
			cycle := int(cycles.Load()) + 1

			canary, err := newClient()
			if err != nil {
				stormErr = fmt.Errorf("failover %d: canary dial: %w", cycle, err)
				return
			}
			canaryKey := fmt.Sprintf("canary-%d", cycle)
			canaryVal := 1_000_000 + cycle
			canary.KillAfterNextSend()
			type canaryResult struct {
				out runtime.Outcome[int]
				err error
			}
			canaryDone := make(chan canaryResult, 1)
			go func() {
				out, err := canary.Put(canaryKey, canaryVal)
				if err == nil {
					switch out.Status {
					case runtime.StatusOK, runtime.StatusRecovered, runtime.StatusFailed, runtime.StatusNotInvoked:
					default:
						err = fmt.Errorf("canary outcome not definite: %v", out.Status)
					}
				}
				canaryDone <- canaryResult{out, err}
			}()
			// Wait until the canary's write is visible — its verdict released,
			// which with the synchronous subscription means fsynced on both
			// nodes — before the kill. Bounded: under heavy load the canary's
			// own redial can outrun us and resolve first, which is fine; the
			// re-issue after promotion still proves the recovered window.
			for visDeadline := time.Now().Add(5 * time.Second); time.Now().Before(visDeadline); {
				if got, perr := prober.GetRetry(canaryKey); perr == nil && got == canaryVal {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			// And let the standby's barrier acks catch the stream tip, so the
			// canary's epoch is durably applied, not merely sent.
			waitSynced(primaryAddr, 5*time.Second) //nolint:errcheck

			// Every process is sampled exactly once, right before it dies.
			replicaServed.Add(sampleReplays(primaryAddr))
			primary.killWait()
			gen, err := promoteNode(standbyAddr, 15*time.Second)
			if err != nil {
				stormErr = fmt.Errorf("failover %d: promote %s: %w", cycle, standbyAddr, err)
				return
			}
			freed := primaryAddr
			primary.set(standby.get())
			primaryAddr, standbyAddr = standbyAddr, freed

			res := <-canaryDone
			if res.err != nil {
				stormErr = fmt.Errorf("failover %d: canary: %w", cycle, res.err)
				return
			}
			// A linearized canary crossed the replication barrier before the
			// old primary died; the promoted replica must serve it back. First
			// re-issue the exact request bytes — same session, same request ID
			// — now that only the promoted replica can answer: the replay must
			// come from its recovered outcome window, byte-identically, and
			// bumps the counter the run's verdict accounting requires.
			if res.out.Status.Linearized() {
				out2, rerr := canary.ReissueLast()
				if rerr != nil {
					stormErr = fmt.Errorf("failover %d: canary re-issue: %w", cycle, rerr)
					return
				}
				if out2.Status != res.out.Status || out2.Resp != res.out.Resp {
					stormErr = fmt.Errorf("failover %d: canary replay diverged: got %v/%d, want %v/%d",
						cycle, out2.Status, out2.Resp, res.out.Status, res.out.Resp)
					return
				}
				if got, err := canary.GetRetry(canaryKey); err != nil {
					stormErr = fmt.Errorf("failover %d: canary readback: %w", cycle, err)
					return
				} else if got != canaryVal {
					stormErr = fmt.Errorf("failover %d: canary readback %s=%d, want %d", cycle, canaryKey, got, canaryVal)
					return
				}
			}
			canary.Close() //nolint:errcheck

			next, err := startServer(bin, append(baseArgs(standbyAddr, nodeDir(nextNode)), "-replica-of", primaryAddr))
			if err != nil {
				stormErr = fmt.Errorf("failover %d: new standby: %w", cycle, err)
				return
			}
			standby.set(next)
			nextNode++
			if err := waitSynced(primaryAddr, 15*time.Second); err != nil {
				stormErr = fmt.Errorf("failover %d: new standby never synced: %w", cycle, err)
				return
			}
			cycles.Add(1)
			if cfg.verbose {
				fmt.Printf("failover %d: promoted %s generation=%d\n", cycle, primaryAddr, gen)
			}
		}
	}()

	hardErrs := make([]error, procs)
	expected := make([]map[string]int, procs)
	names := keyNames(cfg.keys)
	violations := newViolationLog(names)
	var tracker *sharedTracker
	if cfg.shared() {
		tracker = newSharedTracker(cfg.keys)
		for _, key := range names {
			if _, err := clients[0].PutRetry(key, 0); err != nil {
				return fmt.Errorf("zeroing %s: %w", key, err)
			}
		}
	}
	var totalOps atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					hardErrs[pid] = fmt.Errorf("worker panicked: %v", r)
				}
			}()
			c := clients[pid]
			rng := cfg.workerRNG(pid)
			ch := cfg.chooserFor(pid, rng)
			v := newVerify(pid, tracker, violations, &indefinite)
			nextVal := 0
			newVal := func() int { nextVal++; return pid*1_000_000_000 + nextVal }
			var entries []shardkv.KV
			var ki []int
			defer func() { expected[pid] = v.exp }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := ch.next()
				key := names[k]
				var plan []uint32
				if spec.planEvery > 0 && rng.Intn(spec.planEvery) == 0 {
					plan = []uint32{uint32(1 + rng.Intn(14))}
				}
				if spec.killEvery > 0 && rng.Intn(spec.killEvery) == 0 {
					if rng.Intn(2) == 0 {
						c.KillAfterNextSend()
					} else {
						c.KillConn()
					}
				}
				var (
					out runtime.Outcome[int]
					err error
				)
				switch r := rng.Intn(100); {
				case r < spec.getPct:
					pre := v.readBegin(k)
					if out, err = c.Get(key, plan...); err == nil {
						v.get(k, key, pre, out)
					}
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
						var outs []runtime.Outcome[int]
						if outs, err = c.MultiPut(entries); err == nil {
							for j, out := range outs {
								v.put(ki[j], entries[j].Key, entries[j].Val, out)
							}
						}
					} else {
						val := newVal()
						v.beginPut(k, val)
						if out, err = c.Put(key, val, plan...); err == nil {
							v.put(k, key, val, out)
						}
					}
				default:
					v.beginDel(k)
					if out, err = c.Del(key, plan...); err == nil {
						v.del(k, key, out)
					}
				}
				if err != nil {
					hardErrs[pid] = err
					return
				}
				totalOps.Add(1)
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	storm.Wait()

	for pid, err := range hardErrs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", pid, err)
		}
	}
	if stormErr != nil {
		return stormErr
	}

	// Final sweep over the last promoted primary: the replicated store
	// must match every owner's expectation exactly (uniform) or the write
	// registry (shared), failovers included.
	if err := finalSweep(violations, tracker, expected, func(pid int, key string) (int, error) {
		return clients[pid].GetRetry(key)
	}); err != nil {
		return err
	}
	var resumes uint64
	for _, c := range clients {
		resumes += c.Resumes()
		c.Close() //nolint:errcheck
	}

	distDesc := cfg.dist
	if cfg.shared() {
		distDesc = fmt.Sprintf("zipf(theta=%g)", cfg.theta)
	}
	fmt.Printf("failover-storm: mix=%s dist=%s mput=%d procs=%d shards=%d elapsed=%s\n",
		cfg.mixName, distDesc, cfg.mput, procs, cfg.shards, elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate: %d ops (%.0f ops/sec) across %d kill+promote cycles, %d session resumes, replica-served=%d\n",
		totalOps.Load(), float64(totalOps.Load())/elapsed.Seconds(), cycles.Load(), resumes, replicaServed.Load())
	if cfg.verbose {
		fmt.Printf("data dirs: %s (kept for inspection)\n", baseDir)
	}
	if int(cycles.Load()) < failovers {
		return fmt.Errorf("only %d failover cycles completed (wanted ≥ %d)", cycles.Load(), failovers)
	}
	if n := indefinite.Load(); n > 0 {
		return fmt.Errorf("%d operations ended without a definite outcome", n)
	}
	if n := violations.Load(); n > 0 {
		return fmt.Errorf("%d detectability violations (lost or duplicated effects) across failovers", n)
	}
	if replicaServed.Load() == 0 {
		return fmt.Errorf("no verdict was served from a replica's recovered outcome window (expected at least the canaries)")
	}
	fmt.Println("detectability: every operation resolved to a definite outcome across failovers, zero violations")
	return nil
}

// promoteNode asks the node at addr to promote, retrying until it answers
// (the standby may still be mid-recovery when the old primary dies).
func promoteNode(addr string, timeout time.Duration) (uint64, error) {
	deadline := time.Now().Add(timeout)
	for {
		obs, err := client.DialObserver(addr)
		if err == nil {
			gen, perr := obs.Promote()
			obs.Close() //nolint:errcheck
			if perr == nil {
				return gen, nil
			}
			err = perr
		}
		if time.Now().After(deadline) {
			return 0, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// waitSynced polls the primary at addr until a replica is attached and
// has acked every replication barrier — the point where promoting that
// replica cannot lose a released verdict.
func waitSynced(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		obs, err := client.DialObserver(addr)
		if err == nil {
			st, serr := obs.ServerStats()
			obs.Close() //nolint:errcheck
			if serr == nil && st.Replicas >= 1 && st.ReplSeq > 0 && st.ReplAcked >= st.ReplSeq {
				return nil
			}
			if serr == nil {
				err = fmt.Errorf("replicas=%d seq=%d acked=%d", st.Replicas, st.ReplSeq, st.ReplAcked)
			} else {
				err = serr
			}
		}
		lastErr = err
		if time.Now().After(deadline) {
			return lastErr
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// sampleReplays reads a node's recovered-window replay counter, the count
// of verdicts it served out of an outcome window it did not record itself
// — replication's proof of work. Best-effort: a node that cannot answer
// contributes zero.
func sampleReplays(addr string) uint64 {
	obs, err := client.DialObserver(addr)
	if err != nil {
		return 0
	}
	defer obs.Close() //nolint:errcheck
	st, err := obs.ServerStats()
	if err != nil {
		return 0
	}
	return st.RecoveredReplays
}
