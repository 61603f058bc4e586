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
)

// runReadReplicaStorm is the read-replica mode: a durable primary takes
// the write load while a replicating standby serves GET traffic through
// read-only sessions (docs/REPLICATION.md §read replicas). Writers verify
// their mutations with the shared write registry exactly as in the other
// storms; readers verify every replica-served value under the
// bounded-staleness contract — a read may be stale, but a phantom value or
// a resurrected failed write convicts (checkReadStale). Mid-run the storm
// SIGKILLs the primary and promotes the standby with all readers still
// connected: writers fail over on the client's replica-aware redial path,
// readers ride the ReadClient's lag-bounded routing, and a fresh standby
// is raised on the freed address so read traffic can move back off the
// promoted node. The bar is the usual one — zero detectability violations
// — plus proof of work: at least one read must actually have been served
// by a replica.
func runReadReplicaStorm(bin, baseDir string, cfg *wlCfg,
	readers int, maxLag uint64, serverArgs string) (err error) {
	procs := cfg.procs
	if readers < 1 {
		return fmt.Errorf("need -readers ≥ 1 (got %d)", readers)
	}
	if bin == "" {
		return fmt.Errorf("-read-replica needs -server-bin pointing at a kvserverd binary (go build -o kvserverd ./cmd/kvserverd)")
	}
	if baseDir == "" {
		d, err := os.MkdirTemp("", "read-replica-data-")
		if err != nil {
			return err
		}
		baseDir = d
	}
	fmt.Printf("read-replica: data=%s server=%s writers=%d readers=%d max-lag=%d\n",
		baseDir, bin, procs, readers, maxLag)

	addrA, err := freeAddr()
	if err != nil {
		return err
	}
	addrB, err := freeAddr()
	if err != nil {
		return err
	}
	baseArgs := func(addr, dir string) []string {
		args := []string{
			"-addr", addr,
			"-shards", strconv.Itoa(cfg.shards),
			"-procs", strconv.Itoa(procs),
			"-data", dir,
		}
		return append(args, strings.Fields(serverArgs)...)
	}
	nodeDir := func(n int) string { return filepath.Join(baseDir, fmt.Sprintf("node-%d", n)) }

	primary := &serverProc{}
	standby := &serverProc{}
	primaryAddr, standbyAddr := addrA, addrB
	defer func() {
		if r := recover(); r != nil {
			primary.killWait()
			standby.killWait()
			fmt.Fprintf(os.Stderr, "read-replica: panic; servers SIGKILLed and reaped, data dirs retained at %s\n", baseDir)
			panic(r)
		}
		if err != nil {
			primary.killWait()
			standby.killWait()
			fmt.Fprintf(os.Stderr, "read-replica: failed; servers SIGKILLed and reaped, data dirs retained at %s\n", baseDir)
			return
		}
		stopServer(primary.get())
		standby.killWait()
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

	// Writers dial the primary block with the standby as a promotion
	// candidate only: a mutation is never rotated onto a live standby
	// (guaranteed ErrNotPrimary), but after the kill the promoted node is
	// found in the replica block.
	newWriter := func() (*client.Client, error) {
		c, err := client.DialFailoverWithReplicas([]string{addrA}, []string{addrB})
		if err != nil {
			return nil, err
		}
		c.SetRedialPolicy(600, 100*time.Millisecond)
		c.SetCallTimeout(2 * time.Second)
		return c, nil
	}
	writers := make([]*client.Client, procs)
	for p := range writers {
		if writers[p], err = newWriter(); err != nil {
			return fmt.Errorf("dial writer %d: %w", p, err)
		}
	}

	// The registry is unconditional here: readers share every key with
	// every writer regardless of the distribution, so per-process exact
	// expectations cannot exist.
	tracker := newSharedTracker(cfg.keys)
	names := keyNames(cfg.keys)
	violations := newViolationLog(names)
	for _, key := range names {
		if _, err := writers[0].PutRetry(key, 0); err != nil {
			return fmt.Errorf("zeroing %s: %w", key, err)
		}
	}

	var (
		indefinite        atomic.Uint64
		writeOps, readOps atomic.Uint64
		replicaReads      atomic.Uint64
		promoted          atomic.Bool
		stop              = make(chan struct{})
		stormErr          error
	)
	start := time.Now()

	// The storm: one SIGKILL+promote cycle mid-run, readers live
	// throughout, then a fresh standby on the freed address so the
	// ReadClient can route back onto a replica (exercising the snapshot
	// resync path — the rebuilt view reports applied=0 until its first
	// barrier, which the lag bound treats as maximally stale).
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
		// Let both tiers serve steady-state first.
		time.Sleep(cfg.dur / 3)
		waitSynced(primaryAddr, 5*time.Second) //nolint:errcheck
		primary.killWait()
		gen, err := promoteNode(standbyAddr, 15*time.Second)
		if err != nil {
			stormErr = fmt.Errorf("promote %s: %w", standbyAddr, err)
			return
		}
		freed := primaryAddr
		primary.set(standby.get())
		primaryAddr, standbyAddr = standbyAddr, freed
		promoted.Store(true)
		if cfg.verbose {
			fmt.Printf("read-replica: promoted %s generation=%d\n", primaryAddr, gen)
		}
		next, err := startServer(bin, append(baseArgs(standbyAddr, nodeDir(2)), "-replica-of", primaryAddr))
		if err != nil {
			stormErr = fmt.Errorf("replacement standby: %w", err)
			return
		}
		standby.set(next)
		if err := waitSynced(primaryAddr, 15*time.Second); err != nil {
			stormErr = fmt.Errorf("replacement standby never synced: %w", err)
			return
		}
		// Serve the remaining window with the rebuilt replica in play.
		remaining := time.Until(start.Add(cfg.dur))
		if remaining > 0 {
			time.Sleep(remaining)
		}
	}()

	// Writers: put/del mix at the primary, every verdict folded into the
	// registry. Reads stay out of the write tier — that is the point.
	writerErrs := make([]error, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					writerErrs[pid] = fmt.Errorf("writer panicked: %v", r)
				}
			}()
			c := writers[pid]
			rng := cfg.workerRNG(pid)
			ch := cfg.chooserFor(pid, rng)
			v := newVerify(pid, tracker, violations, &indefinite)
			nextVal := 0
			newVal := func() int { nextVal++; return pid*1_000_000_000 + nextVal }
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := ch.next()
				key := names[k]
				if rng.Intn(100) < 80 {
					val := newVal()
					v.beginPut(k, val)
					out, err := c.Put(key, val)
					if err != nil {
						writerErrs[pid] = err
						return
					}
					v.put(k, key, val, out)
				} else {
					v.beginDel(k)
					out, err := c.Del(key)
					if err != nil {
						writerErrs[pid] = err
						return
					}
					v.del(k, key, out)
				}
				writeOps.Add(1)
			}
		}(p)
	}

	// Readers: GET-only sessions routed replica-first, each response
	// verified under bounded staleness. Readers never dial a mutation, so
	// a kill+promote costs them at most a reconnect sweep.
	readerErrs := make([]error, readers)
	for p := 0; p < readers; p++ {
		wg.Add(1)
		go func(rid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					readerErrs[rid] = fmt.Errorf("reader panicked: %v", r)
				}
			}()
			rc, err := client.DialReadPreference(
				[]string{addrA}, []string{addrB},
				client.WithMaxLag(maxLag), client.WithLagInterval(50*time.Millisecond))
			if err != nil {
				readerErrs[rid] = fmt.Errorf("dial: %w", err)
				return
			}
			defer rc.Close() //nolint:errcheck
			rng := cfg.workerRNG(procs + rid)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(cfg.keys)
				out, err := rc.Get(names[k])
				if err != nil {
					// Mid-failover both nodes can refuse for a moment; retry
					// rather than convict — a persistently dead cluster fails
					// the run through the writers.
					time.Sleep(20 * time.Millisecond)
					continue
				}
				if why := tracker.checkReadStale(k, out.Resp); why != "" {
					violations.convict(k, "GET by reader %d (on a replica: %v) got %d: %s", rid, rc.OnReplica(), out.Resp, why)
				}
				readOps.Add(1)
				if rc.OnReplica() {
					replicaReads.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	storm.Wait()

	for pid, err := range writerErrs {
		if err != nil {
			return fmt.Errorf("writer %d: %w", pid, err)
		}
	}
	for rid, err := range readerErrs {
		if err != nil {
			return fmt.Errorf("reader %d: %w", rid, err)
		}
	}
	if stormErr != nil {
		return stormErr
	}

	// Final sweep at the promoted primary: every settled value explained by
	// the registry, the strict (non-stale) check — the write tier's state
	// is the authority the replicas were a bounded-stale prefix of.
	if err := finalSweep(violations, tracker, nil, func(_ int, key string) (int, error) {
		return writers[0].GetRetry(key)
	}); err != nil {
		return err
	}
	for _, c := range writers {
		c.Close() //nolint:errcheck
	}

	fmt.Printf("read-replica: writers=%d readers=%d elapsed=%s\n", procs, readers, elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate: %d writes, %d reads (%d served by a replica, %.0f%%)\n",
		writeOps.Load(), readOps.Load(), replicaReads.Load(),
		100*float64(replicaReads.Load())/float64(max(readOps.Load(), 1)))
	if !promoted.Load() {
		return fmt.Errorf("the SIGKILL+promote cycle never completed")
	}
	if n := indefinite.Load(); n > 0 {
		return fmt.Errorf("%d operations ended without a definite outcome", n)
	}
	if n := violations.Load(); n > 0 {
		return fmt.Errorf("%d detectability violations (phantom or resurrected-failed reads included)", n)
	}
	if replicaReads.Load() == 0 {
		return fmt.Errorf("no read was served by a replica (the mode under test never engaged)")
	}
	fmt.Println("detectability: zero violations — every replica read bounded-stale, never phantom")
	return nil
}
