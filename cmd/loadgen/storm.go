package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/client"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
)

// target is what one worker drives: a process's handle on the store. The
// optional plan step p > 0 injects one crash before the operation's p-th
// primitive step. *client.Client is a target as it stands (every operation
// travels through its session to a live kvserverd); storeTarget binds the
// in-process store to a pid.
type target interface {
	Get(key string, plan ...uint32) (runtime.Outcome[int], error)
	Put(key string, val int, plan ...uint32) (runtime.Outcome[int], error)
	Del(key string, plan ...uint32) (runtime.Outcome[int], error)
	MultiPut(entries []shardkv.KV) ([]runtime.Outcome[int], error)
	GetRetry(key string) (int, error)
	PutRetry(key string, val int) (int, error)
}

// connKiller is the capability of a target that sits behind a connection it
// can sever itself, relying on session resumption to recover the persisted
// verdict: *client.Client has it, the in-process store does not.
type connKiller interface {
	KillConn()
	KillAfterNextSend()
}

// storeTarget is the in-process store as process pid; it never errors.
type storeTarget struct {
	s   *shardkv.Store
	pid int
}

// crashPlans is the in-process form of the wire's plan field
// (server.planOf): step 0 or absent is no planned crash.
func crashPlans(plan []uint32) []nvm.CrashPlan {
	if len(plan) == 0 || plan[0] == 0 {
		return nil
	}
	return []nvm.CrashPlan{nvm.CrashAtStep(uint64(plan[0]))}
}

func (t storeTarget) Get(key string, plan ...uint32) (runtime.Outcome[int], error) {
	return t.s.Get(t.pid, key, crashPlans(plan)...), nil
}

func (t storeTarget) Put(key string, val int, plan ...uint32) (runtime.Outcome[int], error) {
	return t.s.Put(t.pid, key, val, crashPlans(plan)...), nil
}

func (t storeTarget) Del(key string, plan ...uint32) (runtime.Outcome[int], error) {
	return t.s.Del(t.pid, key, crashPlans(plan)...), nil
}

func (t storeTarget) MultiPut(entries []shardkv.KV) ([]runtime.Outcome[int], error) {
	return t.s.MultiPut(t.pid, entries), nil
}

func (t storeTarget) GetRetry(key string) (int, error) { return t.s.GetRetry(t.pid, key), nil }

func (t storeTarget) PutRetry(key string, val int) (int, error) {
	return t.s.PutRetry(t.pid, key, val), nil
}

// serverFlags checks what every server-spawning mode needs — a kvserverd
// binary — and resolves its data directory (empty = a fresh temp dir).
func serverFlags(mode, bin, dir string) (string, error) {
	if bin == "" {
		return "", fmt.Errorf("-%s needs -server-bin pointing at a kvserverd binary (go build -o kvserverd ./cmd/kvserverd)", mode)
	}
	if dir == "" {
		return os.MkdirTemp("", mode+"-data-")
	}
	return dir, nil
}

// storm is the one harness every mode runs in: a prologue (newStorm or
// dialStorm), the worker loop beside a fault schedule (runWorkers), and an
// epilogue (finish). A runner declares what differs — the targets, the mix,
// the fault schedule and the post-conditions — and nothing else.
type storm struct {
	cfg        *wlCfg
	targets    []target         // one per worker process
	clients    []*client.Client // the same, when the targets are wire sessions
	violations *violationLog

	ops     atomic.Uint64 // operations the workers completed
	elapsed time.Duration // the measured window: worker start to last worker done
}

// newStorm is the shared prologue: key names, the violation log and a
// zeroed key space. Every key's check starts from 0, so a value left by an
// earlier run against the same store, server or data directory would read
// as a phantom.
func newStorm(cfg *wlCfg, targets []target) (*storm, error) {
	s := &storm{cfg: cfg, targets: targets, violations: newViolationLog(keyNames(cfg.keys))}
	for _, key := range s.violations.names {
		if _, err := targets[0].PutRetry(key, 0); err != nil {
			return nil, fmt.Errorf("zeroing %s: %w", key, err)
		}
	}
	return s, nil
}

// dialStorm is newStorm over the wire: one session per worker process.
func dialStorm(cfg *wlCfg, dial func() (*client.Client, error)) (*storm, error) {
	clients := make([]*client.Client, cfg.procs)
	targets := make([]target, cfg.procs)
	for p := range clients {
		c, err := dial()
		if err != nil {
			return nil, fmt.Errorf("dial worker %d: %w", p, err)
		}
		clients[p], targets[p] = c, c
	}
	s, err := newStorm(cfg, targets)
	if err == nil {
		s.clients = clients
	}
	return s, err
}

// resumes is how many connection resumes the workers rode in total.
func (s *storm) resumes() (n uint64) {
	for _, c := range s.clients {
		n += c.Resumes()
	}
	return n
}

// closeClients ends the workers' sessions, releasing their process slots.
func (s *storm) closeClients() {
	for _, c := range s.clients {
		c.Close() //nolint:errcheck
	}
}

// runWorkers is the worker loop, the only one: for cfg.dur, worker pid draws
// its replayable operation stream against targets[pid] (see work) beside
// the fault schedule. faults is handed the window's deadline and breaks
// things until then — or for longer, when it owes a minimum number of
// cycles; everything else stops when it returns. Side loops (the
// read-replica mode's readers) run under the same stop. Every goroutine's
// panic becomes its error: nothing may take the process down while it has
// kvserverd children. The workers' hard errors outrank the schedule's own.
func (s *storm) runWorkers(spec mixSpec, faults func(deadline time.Time) error, side ...func(stop <-chan struct{}) error) error {
	stop := make(chan struct{})
	start := time.Now()
	loops := []func() error{func() error {
		defer close(stop)
		return faults(start.Add(s.cfg.dur))
	}}
	for pid := range s.targets {
		loops = append(loops, func() error { return s.work(pid, spec, stop) })
	}
	for _, loop := range side {
		loops = append(loops, func() error { return loop(stop) })
	}
	errs := make([]error, len(loops))
	var wg sync.WaitGroup
	for i, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("storm goroutine %d panicked: %v", i, r)
				}
			}()
			errs[i] = loop()
		}()
	}
	wg.Wait()
	s.elapsed = time.Since(start)
	return errors.Join(append(errs[1:], errs[0])...)
}

// work is one worker: a stream that is a pure function of (seed, procs,
// pid), the mix and whether the target can kill its own connection, every
// operation fed to its key's check, until stop closes or the target stops
// answering.
func (s *storm) work(pid int, spec mixSpec, stop <-chan struct{}) error {
	cfg, t, log := s.cfg, s.targets[pid], s.violations
	names := log.names
	killer, _ := t.(connKiller)
	rng := cfg.workerRNG(pid)
	ch := cfg.chooserFor(pid, rng)
	nextVal := 0
	newVal := func() int { nextVal++; return pid*1_000_000_000 + nextVal }
	var entries []shardkv.KV
	var ps []pending
	putBelow := spec.getPct + spec.putPct // GET below getPct, PUT/MPUT below this, DEL above
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		k := ch.next()
		key := names[k]
		var plan []uint32
		if spec.planEvery > 0 && rng.Intn(spec.planEvery) == 0 {
			plan = []uint32{uint32(1 + rng.Intn(14))}
		}
		if killer != nil && spec.killEvery > 0 && rng.Intn(spec.killEvery) == 0 {
			// Half the kills lose the reply of an already-sent request —
			// the mid-operation case resumption exists for.
			if rng.Intn(2) == 0 {
				killer.KillAfterNextSend()
			} else {
				killer.KillConn()
			}
		}
		var (
			out runtime.Outcome[int]
			err error
		)
		switch r := rng.Intn(100); {
		case r < spec.getPct:
			p := log.begin(k, false, 0)
			if out, err = t.Get(key, plan...); err == nil {
				log.settle(p, opRecord{worker: pid, op: "GET", out: out})
			}
		case r < putBelow:
			if cfg.mput > 0 {
				entries, ps = entries[:0], ps[:0]
				for j := 0; j < cfg.mput; j++ {
					kk := ch.next()
					val := newVal()
					entries = append(entries, shardkv.KV{Key: names[kk], Val: val})
					ps = append(ps, log.begin(kk, true, val))
				}
				var outs []runtime.Outcome[int]
				if outs, err = t.MultiPut(entries); err == nil {
					for j, out := range outs {
						log.settle(ps[j], opRecord{worker: pid, op: "PUT", val: entries[j].Val, out: out})
					}
				}
			} else {
				val := newVal()
				p := log.begin(k, true, val)
				if out, err = t.Put(key, val, plan...); err == nil {
					log.settle(p, opRecord{worker: pid, op: "PUT", val: val, out: out})
				}
			}
		default:
			p := log.begin(k, true, 0)
			if out, err = t.Del(key, plan...); err == nil {
				log.settle(p, opRecord{worker: pid, op: "DEL", out: out})
			}
		}
		if err != nil {
			return fmt.Errorf("worker %d: %w", pid, err)
		}
		s.ops.Add(1)
	}
}

// shardCrashes is the fault schedule of the modes that keep the server
// process alive: until the deadline, fail one random shard every tick (the
// others keep serving), or nothing at all for a mix without a storm. A
// crash that errors means the server is gone; the workers report that.
func shardCrashes(cfg *wlCfg, shards int, crash func(shard int) error) func(time.Time) error {
	return func(deadline time.Time) error {
		if every := cfg.spec.stormEvery; every > 0 {
			rng := rand.New(rand.NewSource(cfg.seed ^ 0x5707))
			tick := time.NewTicker(every)
			defer tick.Stop()
			for now := range tick.C {
				if !now.Before(deadline) || crash(rng.Intn(shards)) != nil {
					break
				}
			}
		}
		time.Sleep(time.Until(deadline))
		return nil
	}
}

// finish is the shared epilogue, entered once runWorkers returned nil: the
// final sweep (every key's settled value must pass its check — crashes,
// kills and failovers included), the mode's report, then the verdict: no
// indefinite outcome, no violation, every post-condition (see require), and
// the closing line.
func (s *storm) finish(report func(), verdict string, post ...error) error {
	if err := finalSweep(s.violations, s.targets[0].GetRetry); err != nil {
		return err
	}
	report()
	if n := s.violations.indefinite.Load(); n > 0 {
		return fmt.Errorf("%d operations ended without a definite outcome", n)
	}
	if n := s.violations.Load(); n > 0 {
		return fmt.Errorf("%d detectability violations (lost or duplicated effects)", n)
	}
	for _, err := range post {
		if err != nil {
			return err
		}
	}
	fmt.Println("detectability: " + verdict)
	return nil
}

// require states a post-condition of a finished run: nil when it holds, the
// complaint otherwise.
func require(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// descr is the report lines' "mix=… dist=… mput=… procs=… shards=…" prefix.
func (w *wlCfg) descr(shards int) string {
	dist := w.dist
	if w.shared() {
		dist = fmt.Sprintf("zipf(theta=%g)", w.theta)
	}
	return fmt.Sprintf("mix=%s dist=%s mput=%d procs=%d shards=%d", w.mixName, dist, w.mput, w.procs, shards)
}
