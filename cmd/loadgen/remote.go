package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/client"
	"detectable/internal/runtime"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// runRemote is run over the wire: the same mixes and the same per-process
// expected-value verification, but every operation travels through a
// client session to a live kvserverd, and the crash-storm mix additionally
// severs worker connections so session resumption is exercised under load.
func runRemote(addr string, cfg *wlCfg) error {
	spec := cfg.spec
	procs := cfg.procs

	if addr == "self" {
		srv := server.New(shardkv.New(cfg.shards, procs))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer srv.Close()
		addr = srv.Addr().String()
		fmt.Printf("self-hosted server: addr=%s shards=%d procs=%d\n", addr, cfg.shards, procs)
	}

	// Observer sessions (no process slot) for stats windows and the storm.
	statsC, err := client.DialObserver(addr)
	if err != nil {
		return fmt.Errorf("dial observer: %w", err)
	}
	defer statsC.Close()
	before, err := statsC.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	numShards := len(before) // the server's real shard count, whatever -shards says

	stop := make(chan struct{})
	var storm sync.WaitGroup
	if spec.stormEvery > 0 {
		stormC, err := client.DialObserver(addr)
		if err != nil {
			return fmt.Errorf("dial storm observer: %w", err)
		}
		storm.Add(1)
		go func() {
			defer storm.Done()
			defer stormC.Close()
			rng := rand.New(rand.NewSource(cfg.seed ^ 0x5707))
			tick := time.NewTicker(spec.stormEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if err := stormC.CrashShard(rng.Intn(numShards)); err != nil {
						return // server gone; workers will report the real error
					}
				}
			}
		}()
	}

	var indefinite atomic.Uint64
	hardErrs := make([]error, procs)
	clients := make([]*client.Client, procs)
	for p := range clients {
		if clients[p], err = client.Dial(addr); err != nil {
			return fmt.Errorf("dial worker %d: %w", p, err)
		}
		defer clients[p].Close()
	}

	names := keyNames(cfg.keys)
	violations := newViolationLog(names)
	var tracker *sharedTracker
	if cfg.shared() {
		tracker = newSharedTracker(cfg.keys)
		// Zero the shared key space first: registry verification classifies
		// every observed value, so a value left by an earlier run against
		// the same server would read as a phantom.
		for _, key := range names {
			if _, err := clients[0].PutRetry(key, 0); err != nil {
				return fmt.Errorf("zeroing %s: %w", key, err)
			}
		}
	}
	start := time.Now()
	deadline := start.Add(cfg.dur)
	var wg sync.WaitGroup
	expected := make([]map[string]int, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			c := clients[pid]
			rng := cfg.workerRNG(pid)
			ch := cfg.chooserFor(pid, rng)
			v := newVerify(pid, tracker, violations, &indefinite)
			nextVal := 0
			newVal := func() int { nextVal++; return pid*1_000_000_000 + nextVal }
			var entries []shardkv.KV
			var ki []int
			defer func() { expected[pid] = v.exp }()
			for time.Now().Before(deadline) {
				k := ch.next()
				key := names[k]
				var plan []uint32
				if spec.planEvery > 0 && rng.Intn(spec.planEvery) == 0 {
					plan = []uint32{uint32(1 + rng.Intn(14))}
				}
				if spec.killEvery > 0 && rng.Intn(spec.killEvery) == 0 {
					// Half the kills lose the reply of an already-sent
					// request — the mid-operation case resumption exists for.
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
			}
		}(p)
	}
	wg.Wait()
	// Snapshot the measured window now: the verification sweep below is
	// bookkeeping, not serving (mirrors the in-process run).
	elapsed := time.Since(start)
	after, err := statsC.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	close(stop)
	storm.Wait()

	for pid, err := range hardErrs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", pid, err)
		}
	}

	// Final sweep over the wire: the server must match every owner's
	// expectation exactly (uniform) or every key's settled value must be
	// explained by the write registry (shared), connection kills and shard
	// crashes included.
	if err := finalSweep(violations, tracker, expected, func(pid int, key string) (int, error) {
		return clients[pid].GetRetry(key)
	}); err != nil {
		return err
	}

	snaps := make([]shardkv.StatsSnapshot, numShards)
	var resumes uint64
	for _, c := range clients {
		resumes += c.Resumes()
	}
	for i := range snaps {
		snaps[i] = after[i].Sub(before[i])
	}
	report(snaps, cfg, elapsed)
	fmt.Printf("sessions:  workers=%d connection-resumes=%d\n", procs, resumes)
	if n := indefinite.Load(); n > 0 {
		return fmt.Errorf("%d operations ended without a definite outcome", n)
	}
	if n := violations.Load(); n > 0 {
		return fmt.Errorf("%d detectability violations (lost or duplicated effects)", n)
	}
	fmt.Println("detectability: every operation resolved to a definite outcome across reconnects, zero violations")
	return nil
}
