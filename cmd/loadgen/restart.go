package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"detectable/internal/client"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
)

// runRestartStorm is the whole-process crash mode: it launches a real
// kvserverd binary with a durable -data directory, drives the usual
// per-process expected-value workload over TCP, and meanwhile repeatedly
// SIGKILLs the server and restarts it from the same directory. Workers ride
// the kills on the client's session-resume path: after each restart they
// reconnect, resume their (durably recovered) session and re-issue the
// in-flight request ID — receiving the original persisted verdict when the
// server had released one, or a fresh exactly-once execution when it had
// not. The bar is unchanged from every other mix: zero detectability
// violations, now across whole-process crash/restart boundaries.
func runRestartStorm(bin, dataDir string, cfg *wlCfg,
	restarts int, restartEvery time.Duration, serverArgs string) (err error) {
	spec := cfg.spec
	procs := cfg.procs
	if restarts < 1 {
		return fmt.Errorf("need -restarts ≥ 1 (got %d)", restarts)
	}
	if bin == "" {
		return fmt.Errorf("-restart-storm needs -server-bin pointing at a kvserverd binary (go build -o kvserverd ./cmd/kvserverd)")
	}
	if dataDir == "" {
		d, err := os.MkdirTemp("", "restart-storm-data-")
		if err != nil {
			return err
		}
		dataDir = d
	}
	fmt.Printf("restart-storm: data=%s server=%s restarts≥%d every=%s\n", dataDir, bin, restarts, restartEvery)

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	args := []string{
		"-addr", addr,
		"-shards", strconv.Itoa(cfg.shards),
		"-procs", strconv.Itoa(procs),
		"-data", dataDir,
	}
	args = append(args, strings.Fields(serverArgs)...)
	first, err := startServer(bin, args)
	if err != nil {
		return err
	}
	proc := &serverProc{cmd: first}

	// One defer owns the spawned server's lifetime, installed before any
	// path can exit: a clean run stops it gracefully (SIGTERM so shutdown
	// stats print), every failure — dial timeout, detected violation,
	// restart that never came back, even a panic unwinding this goroutine —
	// SIGKILLs and reaps whatever the current incarnation is, so no run
	// leaves an orphaned kvserverd holding the data directory. The data
	// directory itself is always retained for post-mortem inspection.
	defer func() {
		if r := recover(); r != nil {
			proc.killWait()
			fmt.Fprintf(os.Stderr, "restart-storm: panic; server SIGKILLed and reaped, data dir retained at %s\n", dataDir)
			panic(r)
		}
		if err != nil {
			proc.killWait()
			fmt.Fprintf(os.Stderr, "restart-storm: failed; server SIGKILLed and reaped, data dir retained at %s\n", dataDir)
			return
		}
		stopServer(proc.get())
	}()
	if err := waitUp(addr, 10*time.Second); err != nil {
		return fmt.Errorf("server never came up: %w", err)
	}

	// Workers: one durable session each, redial policy sized to out-wait a
	// full kill+restart cycle.
	clients := make([]*client.Client, procs)
	for p := range clients {
		if clients[p], err = client.Dial(addr); err != nil {
			return fmt.Errorf("dial worker %d: %w", p, err)
		}
		clients[p].SetRedialPolicy(300, 100*time.Millisecond)
	}

	var (
		indefinite atomic.Uint64
		cycles     atomic.Uint64
		stop       = make(chan struct{})
		stormErr   error
	)
	start := time.Now()
	deadline := start.Add(cfg.dur)

	// The storm: SIGKILL the server mid-workload, restart it from the same
	// data directory, wait for it to accept again. The loop keeps killing
	// until both the duration has elapsed and the minimum cycle count is
	// met, so short -dur values still deliver the contracted restarts.
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
		for {
			time.Sleep(restartEvery)
			if time.Now().After(deadline) && int(cycles.Load()) >= restarts {
				return
			}
			proc.killWait() // SIGKILL: no shutdown path runs, fsynced state only
			next, err := startServer(bin, args)
			if err != nil {
				stormErr = fmt.Errorf("restart %d: %w", cycles.Load()+1, err)
				return
			}
			proc.set(next)
			if err := waitUp(addr, 15*time.Second); err != nil {
				stormErr = fmt.Errorf("restart %d: server never came back: %w", cycles.Load()+1, err)
				return
			}
			cycles.Add(1)
		}
	}()

	hardErrs := make([]error, procs)
	expected := make([]map[string]int, procs)
	names := keyNames(cfg.keys)
	violations := newViolationLog(names)
	var tracker *sharedTracker
	if cfg.shared() {
		tracker = newSharedTracker(cfg.keys)
		// Zero the shared key space first: registry verification classifies
		// every observed value, so a value recovered from an earlier run's
		// data directory would read as a phantom.
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

	// Final sweep over the final server incarnation: the durably recovered
	// store must match every owner's expectation exactly (uniform) or the
	// write registry (shared), SIGKILLs included.
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
	fmt.Printf("restart-storm: mix=%s dist=%s mput=%d procs=%d shards=%d elapsed=%s\n",
		cfg.mixName, distDesc, cfg.mput, procs, cfg.shards, elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate: %d ops (%.0f ops/sec) across %d SIGKILL/restart cycles, %d session resumes\n",
		totalOps.Load(), float64(totalOps.Load())/elapsed.Seconds(), cycles.Load(), resumes)
	if cfg.verbose {
		fmt.Printf("data dir: %s (kept for inspection)\n", dataDir)
	}
	if int(cycles.Load()) < restarts {
		return fmt.Errorf("only %d restart cycles completed (wanted ≥ %d)", cycles.Load(), restarts)
	}
	if n := indefinite.Load(); n > 0 {
		return fmt.Errorf("%d operations ended without a definite outcome", n)
	}
	if n := violations.Load(); n > 0 {
		return fmt.Errorf("%d detectability violations (lost or duplicated effects) across restarts", n)
	}
	fmt.Println("detectability: every operation resolved to a definite outcome across whole-process restarts, zero violations")
	return nil
}

// serverProc tracks the current kvserverd incarnation across the storm
// goroutine's restarts, so the shutdown defer always kills the live
// process and never a long-reaped ancestor.
type serverProc struct {
	mu  sync.Mutex
	cmd *exec.Cmd
}

func (s *serverProc) set(c *exec.Cmd) { s.mu.Lock(); s.cmd = c; s.mu.Unlock() }

func (s *serverProc) get() *exec.Cmd { s.mu.Lock(); defer s.mu.Unlock(); return s.cmd }

// killWait SIGKILLs the current incarnation and reaps it; safe to call on
// an already-dead process (Kill/Wait just error, which is fine — the point
// is that no child outlives the run).
func (s *serverProc) killWait() {
	c := s.get()
	if c == nil || c.Process == nil {
		return
	}
	c.Process.Kill() //nolint:errcheck // may already be dead
	c.Wait()         //nolint:errcheck // killed on purpose
}

// freeAddr reserves a loopback port by binding and immediately releasing
// it, so every server incarnation listens on the same address.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startServer launches one kvserverd incarnation, inheriting stdout/stderr
// so recovery lines land in the run's output.
func startServer(bin string, args []string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd, nil
}

// stopServer shuts the final incarnation down cleanly (SIGTERM, then
// SIGKILL if it lingers).
func stopServer(cmd *exec.Cmd) {
	if cmd == nil || cmd.Process == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }() //nolint:errcheck
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		<-done
	}
}

// waitUp polls addr until a TCP connect succeeds.
func waitUp(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}
