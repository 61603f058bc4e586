package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"detectable/internal/client"
	"detectable/internal/harness"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
)

// target is what one worker drives: a process's handle on the store. The
// optional plan step p > 0 injects one crash before the operation's p-th
// primitive step; CrashShard crashes shard i of the whole store.
// *client.Client is a target as it stands (every operation travels through
// its session to a live kvserverd); storeTarget binds the in-process store
// to a pid.
type target interface {
	Get(key string, plan ...uint32) (runtime.Outcome[int], error)
	Put(key string, val int, plan ...uint32) (runtime.Outcome[int], error)
	Del(key string, plan ...uint32) (runtime.Outcome[int], error)
	MultiPut(entries []shardkv.KV) ([]runtime.Outcome[int], error)
	GetRetry(key string) (int, error)
	PutRetry(key string, val int) (int, error)
	CrashShard(i int) error
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

func (t storeTarget) CrashShard(i int) error {
	t.s.CrashShard(i)
	return nil
}

// spawn is the spawning modes' prologue: it starts the cluster — a lone
// durable kvserverd, or with standby a primary and its sync standby — with
// extra process slots beyond the workers', in dir or else a fresh temp
// directory, announces it with detail, and dials one session per worker
// with dial over the cluster's addresses (primary first). done closes the
// cluster, then removes a temp directory once the run has succeeded (a
// failed run's Close says where its data was retained): defer it. These
// modes break processes, not shards: the mix's shard crashes are off.
func spawn(cfg *wlCfg, mode, bin, dir string, extra int, standby bool, detail string,
	dial func(addrs []string) (*client.Client, error)) (st *storm, c *harness.Cluster, done func(errp *error), err error) {
	if bin == "" {
		return nil, nil, nil, fmt.Errorf("-%s needs -server-bin pointing at a kvserverd binary (go build -o kvserverd ./cmd/kvserverd)", mode)
	}
	cfg.spec.crashEvery = 0
	temp := dir == ""
	if temp {
		if dir, err = os.MkdirTemp("", mode+"-data-"); err != nil {
			return nil, nil, nil, err
		}
	}
	fmt.Printf("%s: data=%s server=%s %s\n", mode, dir, bin, detail)
	c, err = harness.Start(harness.Config{
		Name: mode, Bin: bin, Dir: dir,
		Shards: cfg.shards, Procs: cfg.procs + extra,
	}, standby)
	if err != nil {
		return nil, nil, nil, err
	}
	done = func(errp *error) {
		c.Close(errp)
		if temp && *errp == nil {
			os.RemoveAll(dir)
		}
	}
	a, b := c.Addrs()
	if st, err = dialStorm(cfg, func() (*client.Client, error) { return dial([]string{a, b}) }); err != nil {
		done(&err)
		return nil, nil, nil, err
	}
	st.dataDir = dir
	return st, c, done, nil
}

// storm is the one harness every mode runs in: a prologue (newStorm or
// dialStorm), the worker loop beside a spawning mode's fault schedule
// (runWorkers), and an epilogue (finish) that checks and reports the run.
// A runner declares what differs — targets, mix, fault schedule, report
// header and faults line, post-conditions — and nothing else.
type storm struct {
	cfg        *wlCfg
	targets    []target         // one per worker process
	clients    []*client.Client // the same, when the targets are wire sessions
	violations *violationLog
	shardOf    []int             // each key's shard: shardkv.ShardIndex over cfg.shards
	lats       [][]time.Duration // per worker: each request's latency, wire sessions only
	dataDir    string            // a spawned server's data directory, for the machine line

	tallies []*tally      // what each worker, then each side loop, ran in the window
	cycles  int           // the cycles the fault schedule ran
	elapsed time.Duration // the measured window: worker start to last worker done
}

// tally is one loop's own count of what it ran inside the window, in the
// unit of the checker and of the server's STATS (an MPUT entry is one PUT),
// by the key's shard, of the requests that carried it, and of the shard
// crashes it drew (neither a request nor an op).
type tally struct {
	requests, crashes uint64
	shards            []shardkv.StatsSnapshot
}

func (t *tally) note(shard int, op string, out runtime.Outcome[int]) {
	c := &t.shards[shard]
	switch op {
	case "GET":
		c.Gets++
	case "PUT":
		c.Puts++
	default:
		c.Dels++
	}
	switch out.Status {
	case runtime.StatusOK:
		c.OK++
	case runtime.StatusRecovered:
		c.Recovered++
	case runtime.StatusFailed:
		c.Failed++
	case runtime.StatusNotInvoked:
		c.NotInvoked++
	}
	c.CrashesSeen += uint64(out.Crashes)
}

// merge sums tallies, per shard and in total.
func merge(ts []*tally, shards int) (m tally, total shardkv.StatsSnapshot) {
	m.shards = make([]shardkv.StatsSnapshot, shards)
	for _, t := range ts {
		m.requests += t.requests
		m.crashes += t.crashes
		for i, c := range t.shards {
			m.shards[i], total = m.shards[i].Add(c), total.Add(c)
		}
	}
	return m, total
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
		s.shardOf = append(s.shardOf, shardkv.ShardIndex(key, cfg.shards))
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
		s.clients, s.lats = clients, make([][]time.Duration, len(clients))
	}
	return s, err
}

// runWorkers is the worker loop, the only one: for cfg.dur, worker pid draws
// its replayable operation stream against targets[pid] (see work) beside
// the fault schedule, if any, which is handed the window's deadline, breaks
// things until then — or longer, when it owes a minimum number of cycles —
// and returns the cycles it ran. Side loops (the read-replica mode's readers)
// run under the same stop; every loop counts into a tally of its own.
// Every goroutine's panic becomes its error: nothing may take the process
// down while it has kvserverd children. The workers' hard errors outrank
// the schedule's own.
func (s *storm) runWorkers(spec mixSpec, faults func(deadline time.Time) (int, error), side ...func(stop <-chan struct{}, t *tally) error) error {
	stop := make(chan struct{})
	start := time.Now()
	deadline := start.Add(s.cfg.dur)
	s.tallies = make([]*tally, len(s.targets)+len(side))
	for i := range s.tallies {
		s.tallies[i] = &tally{shards: make([]shardkv.StatsSnapshot, s.cfg.shards)}
	}
	loops := []func() error{func() (err error) {
		defer close(stop)
		if faults != nil {
			s.cycles, err = faults(deadline)
		}
		if err == nil {
			time.Sleep(time.Until(deadline))
		}
		return err
	}}
	for pid := range s.targets {
		loops = append(loops, func() error { return s.work(pid, spec, stop, s.tallies[pid]) })
	}
	for i, loop := range side {
		loops = append(loops, func() error { return loop(stop, s.tallies[len(s.targets)+i]) })
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
// operation fed to its key's check and counted in t, until stop closes or
// the target stops answering. A shard crash is a draw of the same stream,
// made before a request and counted in t apart from it. Over wire sessions
// each request's latency is recorded, an MPUT as one request.
func (s *storm) work(pid int, spec mixSpec, stop <-chan struct{}, t *tally) error {
	cfg, tg, log := s.cfg, s.targets[pid], s.violations
	names := log.names
	killer, _ := tg.(connKiller)
	rng := cfg.workerRNG(pid)
	next := cfg.chooserFor(pid, rng)
	nextVal := 0
	newVal := func() int { nextVal++; return pid*1_000_000_000 + nextVal }
	settle := func(p pending, r opRecord) {
		log.settle(p, r)
		t.note(s.shardOf[p.k], r.op, r.out)
	}
	var entries []shardkv.KV
	var ps []pending
	putBelow := spec.getPct + spec.putPct // GET below getPct, PUT/MPUT below this, DEL above
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		if spec.crashEvery > 0 && rng.Intn(spec.crashEvery) == 0 {
			shard := rng.Intn(cfg.shards)
			if err := tg.CrashShard(shard); err != nil {
				return fmt.Errorf("worker %d: crash shard %d: %w", pid, shard, err)
			}
			t.crashes++
		}
		var began time.Time
		if s.lats != nil {
			began = time.Now()
		}
		k := next()
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
			if out, err = tg.Get(key, plan...); err == nil {
				settle(p, opRecord{worker: pid, op: "GET", out: out})
			}
		case r < putBelow:
			if cfg.mput > 0 {
				entries, ps = entries[:0], ps[:0]
				for j := 0; j < cfg.mput; j++ {
					kk := next()
					val := newVal()
					entries = append(entries, shardkv.KV{Key: names[kk], Val: val})
					ps = append(ps, log.begin(kk, true, val, ps...))
				}
				var outs []runtime.Outcome[int]
				if outs, err = tg.MultiPut(entries); err == nil {
					for j, out := range outs {
						settle(ps[j], opRecord{worker: pid, op: "PUT", val: entries[j].Val, out: out})
					}
				}
			} else {
				val := newVal()
				p := log.begin(k, true, val)
				if out, err = tg.Put(key, val, plan...); err == nil {
					settle(p, opRecord{worker: pid, op: "PUT", val: val, out: out})
				}
			}
		default:
			p := log.begin(k, true, 0)
			if out, err = tg.Del(key, plan...); err == nil {
				settle(p, opRecord{worker: pid, op: "DEL", out: out})
			}
		}
		if err != nil {
			return fmt.Errorf("worker %d: %w", pid, err)
		}
		if s.lats != nil {
			s.lats[pid] = append(s.lats[pid], time.Since(began))
		}
		t.requests++
	}
}

// schedule is the spawning modes' fault loop: every `every` it runs
// fault(cycle), cycles numbered from 1, until the deadline has passed and
// no fewer than least cycles have run, so a window shorter than least ×
// every still delivers them; every = 0 runs nothing. It returns the cycles
// run; a fault's error ends it and is returned with them, as "<what>
// <cycle>: …".
func schedule(what string, deadline time.Time, every time.Duration, least int, fault func(cycle int) error) (n int, err error) {
	for ; every > 0; n++ {
		time.Sleep(every)
		if !time.Now().Before(deadline) && n >= least {
			break
		}
		if err = fault(n + 1); err != nil {
			return n, fmt.Errorf("%s %d: %w", what, n+1, err)
		}
	}
	return n, nil
}

// shardCrashLine is the in-process and -remote faults line: the shard
// crashes the workers drew, and at what rate.
func (s *storm) shardCrashLine() string {
	all, _ := merge(s.tallies, s.cfg.shards)
	line := fmt.Sprintf("%d shard crashes", all.crashes)
	if every := s.cfg.spec.crashEvery; every > 0 {
		line += fmt.Sprintf(" (1 in %d requests)", every)
	}
	return line
}

// finish is the shared epilogue, entered once runWorkers returned nil: the
// final sweep (every key's settled value must pass its check — crashes,
// kills and failovers included), the workers' sessions closed, the run's
// one report — every mode alike, from the loops' own tallies: the header,
// what ran and its verdicts, the faults (and the sessions' resumes), with -v
// the same per shard, the machine and the request latencies — then the
// verdict: no indefinite outcome, no violation, every post-condition (see
// require), and the closing line.
func (s *storm) finish(header, faults, verdict string, post ...error) error {
	if err := finalSweep(s.violations, s.targets[0].GetRetry); err != nil {
		return err
	}
	if s.clients != nil {
		var resumes uint64
		for _, c := range s.clients {
			resumes += c.Resumes()
			c.Close() //nolint:errcheck // releases its process slot
		}
		faults += fmt.Sprintf(", %d session resumes", resumes)
	}
	// How often the keys' checks merged families past their cap: 0 if
	// every verdict was checked exactly.
	merges := 0
	for i := range s.violations.keys {
		merges += s.violations.keys[i].reg.Merges()
	}
	secs := s.elapsed.Seconds()
	all, c := merge(s.tallies, s.cfg.shards)
	fmt.Printf("%s elapsed=%s\n", header, s.elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate: %d ops (%.0f ops/sec) in %d requests — gets=%d puts=%d dels=%d\n",
		c.Ops(), float64(c.Ops())/secs, all.requests, c.Gets, c.Puts, c.Dels)
	fmt.Printf("verdicts:  ok=%d recovered=%d failed=%d not-invoked=%d crashes-observed=%d merges=%d\n",
		c.OK, c.Recovered, c.Failed, c.NotInvoked, c.CrashesSeen, merges)
	fmt.Println("faults:    " + faults)
	if s.cfg.verbose {
		fmt.Printf("%6s %10s %12s %10s %8s %8s\n", "shard", "ops", "ops/sec", "recovered", "failed", "crashes")
		for i, c := range all.shards {
			fmt.Printf("%6d %10d %12.0f %10d %8d %8d\n", i, c.Ops(), float64(c.Ops())/secs, c.Recovered, c.Failed, c.CrashesSeen)
		}
	}
	fmt.Println(machineLine(s.dataDir))
	fmt.Println(s.latencyLine())
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

// descr is a report header's "mix=… dist=… mput=… procs=… shards=…".
func (w *wlCfg) descr() string {
	dist := w.dist
	if w.shared() {
		dist = fmt.Sprintf("zipf(theta=%g)", w.theta)
	}
	return fmt.Sprintf("mix=%s dist=%s mput=%d procs=%d shards=%d", w.mixName, dist, w.mput, w.procs, w.shards)
}
