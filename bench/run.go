package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"detectable/internal/client"
	"detectable/internal/durable"
)

// setupRounds is how many times an untraced run sets the stack up; setup_s
// is the median, and the last stack is the one measured. The first two
// rounds grow the heap and run slow; nine leave the median among the steady
// ones.
const setupRounds = 9

// windowSlices is how many equal slices the measured window is cut into:
// ops_per_s is the median of the slices' rates, so a spell of a second or
// two in which the host was busy does not move it.
const windowSlices = 20

// runConfig is one run of one workload.
type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds time.Duration // the measured window
	keys    int           // numKeys, but for the tests
	tmpRoot string        // data directories and crash images go under it
	outDir  string        // "" writes no files
	// wrapFs is handed to the stack: the mutant test drops fsyncs with it.
	wrapFs func(durable.Fs) durable.Fs
}

// warmup is the unrecorded lead-in: 3 s on a full-length run, shorter on
// the short runs the tests make.
func (cfg runConfig) warmup() time.Duration {
	return min(3*time.Second, cfg.seconds/4)
}

// result is what one run reports and what a result file holds.
type result struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Stamp      stamp             `json:"stamp"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations int               `json:"violations"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Info holds what an untraced run measured besides its gated metrics:
	// the speed of its window (the ungated table).
	Info map[string]metric `json:"info,omitempty"`
}

// sampler polls replication state every 10 ms while traffic runs: the
// number of attached replicas (check 3: a silently dropped standby would
// make PUTs faster) and, in barriers, how far the standby's read view is
// behind the primary.
type sampler struct {
	st      *stack
	stop    chan struct{}
	done    sync.WaitGroup
	minSubs int
	lag     []float64
}

func startSampler(st *stack) *sampler {
	s := &sampler{st: st, stop: make(chan struct{}), minSubs: -1}
	if st.standby == nil {
		return s
	}
	s.lag = make([]float64, 0, 1<<14)
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			seq, _, subs := st.primary.db.ReplStatus()
			if s.minSubs < 0 || subs < s.minSubs {
				s.minSubs = subs
			}
			if applied := st.standby.db.ViewSeq(); applied <= seq {
				s.lag = append(s.lag, float64(seq-applied))
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the violations it saw.
func (s *sampler) finish() (violations int) {
	close(s.stop)
	s.done.Wait()
	if s.st.standby != nil && s.minSubs < 1 {
		violations++
	}
	return violations
}

// quiesce runs after every connection has stopped: check (2) at the
// primary and, with a standby, the same sweep at the standby once it has
// acked everything.
func quiesce(st *stack, t *traffic) (violations int, err error) {
	c, err := client.DialReadOnly(st.primary.addr())
	if err != nil {
		return 0, err
	}
	defer c.Close() //nolint:errcheck // read-only session
	violations, err = t.finalSweep(func(key string) (int, error) {
		out, err := c.Get(key)
		return out.Resp, err
	})
	if err != nil || st.standby == nil {
		return violations, err
	}
	if err := st.waitSynced(10 * time.Second); err != nil {
		return violations, err
	}
	v, err := t.finalSweep(func(key string) (int, error) {
		out, err := t.reader.c.Get(key)
		return out.Resp, err
	})
	return violations + v, err
}

func heapInuseMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// runUntraced measures the end-to-end metrics: durable.Open with no
// wrapper, no spans, no counter reads inside the window.
func runUntraced(cfg runConfig) (*result, error) {
	began := time.Now()
	scfg := stackConfig{durable: cfg.spec.durable, replica: cfg.spec.replica, keys: cfg.keys, tmpRoot: cfg.tmpRoot, wrapFs: cfg.wrapFs}
	var (
		st     *stack
		t      *traffic
		setups []float64
		heap   float64
	)
	for round := 0; round < setupRounds; round++ {
		if st != nil {
			t.close()
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		// Every round starts from a collected heap, so that none pays for
		// sweeping the stack the round before it left behind.
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = startStack(scfg); err != nil {
			return nil, err
		}
		if t, err = dialTraffic(cfg.spec, st, cfg.seed); err != nil {
			st.close() //nolint:errcheck // the dial error is the one to report
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if round == 0 {
			// On the first round the heap holds this stack and nothing
			// earlier rounds left fragmented, so the reading repeats.
			heap = heapInuseMiB()
		}
	}
	defer st.close() //nolint:errcheck // directories are scratch; a failed remove cannot change the numbers
	defer t.close()

	t.prepare(cfg.seconds, nil)
	smp := startSampler(st)
	p := newPhases(time.Now(), cfg.warmup(), cfg.seconds, windowSlices)
	t.run(p)
	violations := smp.finish()

	v, err := quiesce(st, t)
	if err != nil {
		return nil, err
	}
	violations += v

	ms := newMetricSet(endToEnd)
	ms.set("setup_s", median(setups), len(setups))
	ms.set("heap_inuse_mb", heap, 0)
	info := newMetricSet(ungated)
	speedMetrics(info, t, p)
	res := finishResult(cfg, false, began, t, violations, ms)
	res.Info = info.complete()
	return res, nil
}

// speedMetrics sets throughput and the latency percentiles of the measured
// window.
func speedMetrics(ms *metricSet, t *traffic, p *phases) {
	n := p.slices()
	rates := make([]float64, 0, n)
	ops := 0
	for i := 1; i <= n; i++ {
		rates = append(rates, float64(t.closedLoopOps(i))/p.slice.Seconds())
		ops += t.closedLoopOps(i)
	}
	ms.set("ops_per_s", median(rates), ops)
	for kind, name := range [numOpKinds]string{"get", "put", "mput16"} {
		lat := t.latencies(opKind(kind), 1, n+1)
		ms.set(name+"_p50_us", percentile(lat, 0.50)/1e3, len(lat))
		ms.set(name+"_p99_us", percentile(lat, 0.99)/1e3, len(lat))
	}
	lat := t.replicaLatencies(1, n+1)
	ms.set("replica_get_p50_us", percentile(lat, 0.50)/1e3, len(lat))
	ms.set("replica_get_p99_us", percentile(lat, 0.99)/1e3, len(lat))
}

func finishResult(cfg runConfig, traced bool, began time.Time, t *traffic, violations int, ms *metricSet) *result {
	attempted, failed, v, firstErr := t.totals()
	res := &result{
		Workload:   cfg.spec.Name,
		Traced:     traced,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds.Seconds(),
		Attempted:  attempted,
		Failed:     failed,
		Violations: violations + v,
		Metrics:    ms.complete(),
	}
	if firstErr != nil {
		res.FirstError = firstErr.Error()
	}
	res.Correct = res.Violations == 0 && res.Attempted > 0
	res.Stamp = newStamp(cfg.tmpRoot, time.Since(began))
	return res
}

// counters is a snapshot of every counter the layers keep, taken at the
// edges of the traced window.
type counters struct {
	at              time.Time
	epochs, commits uint64
	mallocs         uint64
	gcPauseNs       uint64
	cpu             time.Duration
}

func readCounters(st *stack) counters {
	c := counters{at: time.Now()}
	if db := st.primary.db; db != nil {
		c.epochs, c.commits = db.GroupCommitStats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcPauseNs = ms.Mallocs, ms.PauseTotalNs
	c.cpu = cpuTime()
	return c
}

// cpuTime is the CPU time, user and system, this process has used: load
// connections and servers alike, since they share it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// A traced run splits its --seconds between the served trace and the
// workload's part of the ladder.
const servedShare = 0.75

// The served trace's window is cut into tracedSlices slices; the recorder
// is on in all of them but the two of recorderOff. Those sit symmetrically
// about the middle of the window, so whatever drifts along it (the heap
// grows, logs fill and are compacted) weighs on both kinds of slice alike,
// and the ratio of their rates is what recording costs.
const tracedSlices = 8

var recorderOff = [tracedSlices + 1]bool{3: true, 6: true} // by phase; phase 0 is the warm-up

// runTraced measures the per-layer metrics: part (a), the served trace of
// the workload, with the crash-image check, then part (b), the rungs of the
// ladder that stand on this workload's kind of stack.
func runTraced(cfg runConfig) (*result, error) {
	began := time.Now()
	served := time.Duration(float64(cfg.seconds) * servedShare)
	ms := newMetricSet(perLayer)

	res, err := servedTrace(cfg, served, ms, began)
	if err != nil {
		return nil, err
	}

	if err := runLadder(cfg, cfg.seconds-served, ms); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	res.Metrics = ms.complete()
	res.Stamp.WallS = time.Since(began).Seconds()
	return res, nil
}

// servedTrace is part (a): it brings the workload's stack up over the
// timing wrapper, runs the window, makes the checks, and tears the stack
// down before the ladder builds its own.
func servedTrace(cfg runConfig, served time.Duration, ms *metricSet, began time.Time) (*result, error) {
	rec := newRecorder(int(served.Seconds()*40000) + 1<<14)
	scfg := stackConfig{durable: cfg.spec.durable, replica: cfg.spec.replica, keys: cfg.keys, tmpRoot: cfg.tmpRoot, rec: rec, wrapFs: cfg.wrapFs}
	st, err := startStack(scfg)
	if err != nil {
		return nil, err
	}
	defer st.close() //nolint:errcheck // directories are scratch
	t, err := dialTraffic(cfg.spec, st, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer t.close()

	t.prepare(served, rec)
	smp := startSampler(st)
	p := newPhases(time.Now(), min(2*time.Second, cfg.warmup()), served, tracedSlices)
	p.spans = make([]bool, len(p.ends))
	for i := 1; i < len(p.spans); i++ {
		p.spans[i] = !recorderOff[i]
	}

	// The coordinator switches the recorder at the slices' edges and reads
	// the counters at the window's.
	var c0, c1 counters
	var coord sync.WaitGroup
	coord.Add(1)
	go func() {
		defer coord.Done()
		for i := 1; i < len(p.ends); i++ {
			time.Sleep(time.Until(p.ends[i-1]))
			if i == 1 {
				c0 = readCounters(st)
			}
			rec.on.Store(p.spans[i])
		}
		time.Sleep(time.Until(p.ends[len(p.ends)-1]))
		rec.on.Store(false)
		c1 = readCounters(st)
	}()
	t.run(p)
	coord.Wait()
	violations := smp.finish()

	v, err := quiesce(st, t)
	if err != nil {
		return nil, err
	}
	violations += v
	if st.primary.db != nil {
		v, err := crashImageCheck(cfg, st, t, ms)
		if err != nil {
			return nil, err
		}
		violations += v
	}

	servedMetrics(ms, t, p, st, rec, smp, c0, c1)
	if cfg.outDir != "" {
		if err := writeTrace(cfg, t, rec); err != nil {
			return nil, err
		}
	}
	return finishResult(cfg, true, began, t, violations, ms), nil
}

// servedMetrics derives part (a)'s metrics: the counters cover the whole
// window, the spans the slices in which the recorder was on.
func servedMetrics(ms *metricSet, t *traffic, p *phases, st *stack, rec *recorder, smp *sampler, c0, c1 counters) {
	var opsOn, opsOff, slicesOn int
	for i := 1; i <= p.slices(); i++ {
		if p.spans[i] {
			opsOn += t.closedLoopOps(i)
			slicesOn++
		} else {
			opsOff += t.closedLoopOps(i)
		}
	}
	if slicesOff := p.slices() - slicesOn; opsOff > 0 {
		on, off := float64(opsOn)/float64(slicesOn), float64(opsOff)/float64(slicesOff)
		ms.set("trace.overhead_share", 1-on/off, opsOn+opsOff)
	}
	puts := t.latencies(opPut, 1, p.slices()+1)
	ms.set("put_p999_us", percentile(puts, 0.999)/1e3, len(puts))

	window := c1.at.Sub(c0.at).Seconds()
	if ops := opsOn + opsOff; ops > 0 {
		ms.set("proc.cpu_us_per_op", float64((c1.cpu-c0.cpu).Microseconds())/float64(ops), ops)
		ms.set("proc.mallocs_per_op", float64(c1.mallocs-c0.mallocs)/float64(ops), ops)
	}
	ms.set("proc.gc_pause_ms", float64(c1.gcPauseNs-c0.gcPauseNs)/1e6, 0)
	if epochs := c1.epochs - c0.epochs; epochs > 0 {
		ms.set("durable.commits_per_epoch", float64(c1.commits-c0.commits)/float64(epochs), int(epochs))
		ms.set("durable.epochs_per_s", float64(epochs)/window, int(epochs))
	}
	if r := t.reader; r != nil {
		slices.Sort(r.lateness)
		ms.set("gen.lateness_p99_us", percentile(r.lateness, 0.99)/1e3, len(r.lateness))
		slices.Sort(r.service)
		ms.set("repl.get_service_p50_us", percentile(r.service, 0.50)/1e3, len(r.service))
	}
	if st.standby != nil {
		slices.Sort(smp.lag)
		ms.set("repl.lag_p50_barriers", percentile(smp.lag, 0.50), len(smp.lag))
		ms.set("repl.lag_p99_barriers", percentile(smp.lag, 0.99), len(smp.lag))
		ms.set("repl.min_replicas", float64(smp.minSubs), len(smp.lag))
	}
	if st.primary.db != nil {
		fsMetrics(ms, t, p, rec, time.Duration(slicesOn)*p.slice)
	}
}

// writeResult writes the result file of one run.
func writeResult(dir string, res *result) error {
	name := res.Workload + ".json"
	if res.Traced {
		name = res.Workload + ".traced.json"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
