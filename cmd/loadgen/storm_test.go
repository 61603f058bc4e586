package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"detectable/internal/runtime"
	"detectable/internal/shardkv"
)

// fakeStore is a correct in-memory register map behind fakeTargets, unless
// a fault is switched on: dropAcked acks every PUT without applying it (the
// old value keeps being served), twoFaced applies every PUT and answers
// "failed" (the verdict and the next read disagree about one operation).
type fakeStore struct {
	mu                  sync.Mutex
	vals                map[string]int
	dropAcked, twoFaced bool

	want    int            // each target reports once, after this many operations
	reached sync.WaitGroup // one Done per target
}

// fakeTarget is one worker's handle; log is the stream it was asked to
// run, its shard crashes included.
type fakeTarget struct {
	st  *fakeStore
	log []string
}

func newFakes(procs, want int) (*fakeStore, []target) {
	st := &fakeStore{vals: map[string]int{}, want: want}
	st.reached.Add(procs)
	targets := make([]target, procs)
	for p := range targets {
		targets[p] = &fakeTarget{st: st}
	}
	return st, targets
}

func (t *fakeTarget) note(format string, args ...any) {
	t.log = append(t.log, fmt.Sprintf(format, args...))
	if len(t.log) == t.st.want {
		t.st.reached.Done()
	}
}

func ok(resp int) (runtime.Outcome[int], error) {
	return runtime.Outcome[int]{Status: runtime.StatusOK, Resp: resp}, nil
}

func (t *fakeTarget) Get(key string, plan ...uint32) (runtime.Outcome[int], error) {
	t.note("GET %s %v", key, plan)
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	return ok(t.st.vals[key])
}

func (t *fakeTarget) put(key string, val int) (runtime.Outcome[int], error) {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	if !t.st.dropAcked {
		t.st.vals[key] = val
	}
	if t.st.twoFaced {
		return runtime.Outcome[int]{Status: runtime.StatusFailed}, nil
	}
	return ok(0)
}

func (t *fakeTarget) Put(key string, val int, plan ...uint32) (runtime.Outcome[int], error) {
	t.note("PUT %s %d %v", key, val, plan)
	return t.put(key, val)
}

func (t *fakeTarget) Del(key string, plan ...uint32) (runtime.Outcome[int], error) {
	t.note("DEL %s %v", key, plan)
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	delete(t.st.vals, key)
	return ok(0)
}

func (t *fakeTarget) MultiPut(entries []shardkv.KV) ([]runtime.Outcome[int], error) {
	t.note("MPUT %v", entries)
	outs := make([]runtime.Outcome[int], len(entries))
	for i, e := range entries {
		outs[i], _ = t.put(e.Key, e.Val)
	}
	return outs, nil
}

func (t *fakeTarget) CrashShard(i int) error {
	t.note("CRASH %d", i)
	return nil
}

func (t *fakeTarget) GetRetry(key string) (int, error) {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	return t.st.vals[key], nil
}

func (t *fakeTarget) PutRetry(key string, val int) (int, error) {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	t.st.vals[key] = val
	return 1, nil
}

// lockedBuffer lets concurrent workers' convictions land in one buffer.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// fakeStorm runs the worker loop over fakes until every worker has been
// asked for want operations, and returns the streams they saw.
func fakeStorm(t *testing.T, cfg wlCfg, want int, fault func(*fakeStore)) (st *storm, streams [][]string, printed string) {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	store, targets := newFakes(cfg.procs, want)
	if fault != nil {
		fault(store)
	}
	st, err := newStorm(&cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	var buf lockedBuffer
	st.violations.w = &buf
	if err := st.runWorkers(cfg.spec, func(time.Time) (int, error) {
		store.reached.Wait()
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		streams = append(streams, tg.(*fakeTarget).log[:want])
	}
	return st, streams, buf.buf.String()
}

// TestWorkerStreamIsPureFunctionOfSeedProcsPid: the operations a worker is
// asked to run — op, key, value, planned crash step, batch contents — and
// the shard crashes between them depend on (seed, procs, pid) and the
// workload flags alone, so a failing storm replays; and each of the three
// actually keys the stream.
func TestWorkerStreamIsPureFunctionOfSeedProcsPid(t *testing.T) {
	const want = 300
	for _, cfg := range []wlCfg{
		{mixName: "crash-storm", dist: "uniform", procs: 2, shards: 4, keys: 16, seed: 7},
		{mixName: "crash-storm", dist: "zipf", theta: 0.99, mput: 3, procs: 3, shards: 4, keys: 16, seed: 7},
	} {
		_, first, _ := fakeStorm(t, cfg, want, nil)
		_, again, _ := fakeStorm(t, cfg, want, nil)
		for pid := range first {
			if !slices.Equal(first[pid], again[pid]) {
				t.Errorf("%s/%s: worker %d drew two different streams from one (seed, procs, pid)", cfg.mixName, cfg.dist, pid)
			}
			if crashes(first[pid]) == 0 {
				t.Errorf("%s/%s: worker %d drew no shard crash in %d records", cfg.mixName, cfg.dist, pid, want)
			}
		}
		if slices.Equal(first[0], first[1]) {
			t.Errorf("%s/%s: workers 0 and 1 drew the same stream", cfg.mixName, cfg.dist)
		}
		reseeded, widened := cfg, cfg
		reseeded.seed++
		widened.procs++
		for what, other := range map[string]wlCfg{"seed": reseeded, "procs": widened} {
			if _, streams, _ := fakeStorm(t, other, want, nil); slices.Equal(first[0], streams[0]) {
				t.Errorf("%s/%s: worker 0's stream ignores the %s", cfg.mixName, cfg.dist, what)
			}
		}
	}
}

// TestWorkerLoopMustConvict: a target that lies is caught by the loop's
// verifier, in both verifier modes, with the key's trail printed — a server
// that acks a PUT and goes on serving the old value, and one whose answers
// about a single PUT disagree (verdict "failed", then its value in a read).
func TestWorkerLoopMustConvict(t *testing.T) {
	faults := map[string]func(*fakeStore){
		"acked PUT dropped":         func(s *fakeStore) { s.dropAcked = true },
		"failed PUT's value served": func(s *fakeStore) { s.twoFaced = true },
	}
	for name, fault := range faults {
		for _, dist := range []string{"uniform", "zipf"} {
			// read-heavy has no DELs, which could explain away a served zero.
			cfg := wlCfg{mixName: "read-heavy", dist: dist, theta: 0.99, procs: 2, shards: 1, keys: 4, seed: 1}
			st, _, printed := fakeStorm(t, cfg, 400, fault)
			err := st.finish("", "", "unreachable")
			if st.violations.Load() == 0 || err == nil || !strings.Contains(err.Error(), "detectability violations") {
				t.Errorf("%s (%s): %d violations, finish = %v; want a conviction", name, dist, st.violations.Load(), err)
				continue
			}
			for _, part := range []string{"violation: key-", "operations on key-", "oldest first:", " → "} {
				if !strings.Contains(printed, part) {
					t.Errorf("%s (%s): the conviction's printout lacks %q:\n%s", name, dist, part, printed)
				}
			}
		}
	}
	// The same loop over an honest fake convicts nothing.
	st, _, printed := fakeStorm(t, wlCfg{mixName: "mixed", dist: "zipf", theta: 0.99, procs: 2, shards: 1, keys: 4, seed: 1}, 400, nil)
	if err := st.finish("", "", "every operation resolved to a definite outcome, zero violations"); err != nil {
		t.Errorf("honest fake: finish = %v\n%s", err, printed)
	}
}

// TestUniformStormOverEarlierValues: a uniform run against a store that an
// earlier run left nonzero values in convicts nothing, because every run
// zeroes its key space before its checks start from 0.
func TestUniformStormOverEarlierValues(t *testing.T) {
	cfg := wlCfg{mixName: "mixed", dist: "uniform", procs: 2, shards: 1, keys: 8, seed: 1}
	st, _, printed := fakeStorm(t, cfg, 400, func(s *fakeStore) {
		for i, key := range keyNames(cfg.keys) {
			s.vals[key] = 1_000_000_000 + i
		}
	})
	if err := st.finish("", "", "every operation resolved to a definite outcome, zero violations"); err != nil {
		t.Errorf("finish = %v\n%s", err, printed)
	}
}

// crashes counts the shard crashes in a target's log.
func crashes(log []string) (n int) {
	for _, rec := range log {
		if strings.HasPrefix(rec, "CRASH ") {
			n++
		}
	}
	return n
}

// TestTallyCountsWhatWorkersRan: each worker's tally is exactly the stream
// its target was asked to run — an MPUT of k entries is k PUTs in one
// request, a shard crash is neither a request nor an op — and neither the
// key zeroing before the window nor the final sweep after it is counted.
func TestTallyCountsWhatWorkersRan(t *testing.T) {
	const k = 3
	cfg := wlCfg{mixName: "crash-storm", dist: "uniform", mput: k, procs: 2, shards: 4, keys: 16, seed: 1}
	st, _, _ := fakeStorm(t, cfg, 300, nil)
	check := func(when string) {
		for pid, tg := range st.targets {
			var want shardkv.StatsSnapshot
			stream := tg.(*fakeTarget).log
			for _, op := range stream {
				switch strings.Fields(op)[0] {
				case "GET":
					want.Gets++
				case "PUT":
					want.Puts++
				case "MPUT":
					want.Puts += k
				case "DEL":
					want.Dels++
				}
			}
			want.OK = want.Ops()
			tl, drawn := st.tallies[pid], crashes(stream)
			if _, got := merge([]*tally{tl}, cfg.shards); got != want || tl.requests != uint64(len(stream)-drawn) || tl.crashes != uint64(drawn) {
				t.Errorf("%s: worker %d tallied %+v in %d requests and %d crashes; its target ran %+v in %d and %d",
					when, pid, got, tl.requests, tl.crashes, want, len(stream)-drawn, drawn)
			}
		}
	}
	check("after the window")
	if err := st.finish("", "", "zero violations"); err != nil {
		t.Fatal(err)
	}
	check("after the final sweep")
}

// TestSchedule: the one fault loop runs nothing when every is 0, delivers
// its minimum cycles past a deadline, otherwise faults only before the
// deadline and stops at the first tick past it, and ends at a fault's
// error with the cycles it ran.
func TestSchedule(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name       string
		every      time.Duration
		least      int
		window     time.Duration
		failAt     int // the cycle whose fault errs (0 = none)
		minN, maxN int
	}{
		{"every 0 runs nothing", 0, 3, time.Hour, 0, 0, 0},
		{"a short window still runs the minimum", 5 * time.Millisecond, 4, 0, 0, 4, 4},
		{"stops at the first tick past the deadline", 10 * time.Millisecond, 1, 45 * time.Millisecond, 0, 1, 4},
		{"a fault's error ends it", time.Millisecond, 10, 0, 3, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deadline := time.Now().Add(tc.window)
			var at []time.Time
			n, err := schedule("fault", deadline, tc.every, tc.least, func(cycle int) error {
				at = append(at, time.Now())
				if cycle != len(at) {
					t.Errorf("fault %d was handed cycle %d", len(at), cycle)
				}
				if cycle == tc.failAt {
					return boom
				}
				return nil
			})
			ended := time.Now()
			if n < tc.minN || n > tc.maxN || (err != nil) != (tc.failAt > 0) || err != nil && !errors.Is(err, boom) {
				t.Fatalf("schedule = %d, %v; want %d..%d cycles, error %v", n, err, tc.minN, tc.maxN, tc.failAt > 0)
			}
			if want := n + min(tc.failAt, 1); len(at) != want {
				t.Errorf("%d faults ran for %d cycles, want %d", len(at), n, want)
			}
			if tc.failAt > 0 || tc.every == 0 {
				return
			}
			// The first tick past both the deadline and the last cycle ends
			// it; a sleep only overshoots, and the slack is for a loaded
			// machine.
			last := deadline
			if at[n-1].After(last) {
				last = at[n-1]
			}
			if ended.Before(deadline) || ended.After(last.Add(tc.every+250*time.Millisecond)) {
				t.Errorf("returned %s after the deadline and %s after the last cycle, want the first tick past both",
					ended.Sub(deadline), ended.Sub(at[n-1]))
			}
			for i, a := range at[tc.least:] {
				if !a.Before(deadline) {
					t.Errorf("cycle %d, beyond the minimum %d, ran %s past the deadline", tc.least+i+1, tc.least, a.Sub(deadline))
				}
			}
		})
	}
}

// TestValidateBoundsInFlightPerKey: a run whose processes could hold more
// operations in flight on one key than its check follows is refused up
// front, not by a panic mid-storm.
func TestValidateBoundsInFlightPerKey(t *testing.T) {
	for _, tc := range []struct {
		cfg wlCfg
		ok  bool
	}{
		{wlCfg{dist: "zipf", procs: 8, mput: 8}, true},
		{wlCfg{dist: "zipf", procs: 16, mput: 8}, false},
		{wlCfg{dist: "uniform", procs: 16, mput: 64}, true},
		{wlCfg{dist: "uniform", procs: 16, mput: 65}, false},
	} {
		tc.cfg.mixName, tc.cfg.shards, tc.cfg.keys = "mixed", 1, 32
		if err := tc.cfg.validate(); (err == nil) != tc.ok {
			t.Errorf("%s procs=%d mput=%d: validate = %v, want ok=%v", tc.cfg.dist, tc.cfg.procs, tc.cfg.mput, err, tc.ok)
		}
	}
}

// stdoutOf returns what f printed to os.Stdout.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	return <-printed
}

// TestFaultsLineIsTheStreamsCount: a crash-storm run's faults line prints
// the shard crashes its workers' targets were asked for, and the rate.
func TestFaultsLineIsTheStreamsCount(t *testing.T) {
	cfg := wlCfg{mixName: "crash-storm", dist: "zipf", theta: 0.99, procs: 3, shards: 4, keys: 16, seed: 3}
	st, _, _ := fakeStorm(t, cfg, 400, nil)
	asked := 0
	for _, tg := range st.targets {
		asked += crashes(tg.(*fakeTarget).log)
	}
	var err error
	printed := stdoutOf(t, func() { err = st.finish("", st.shardCrashLine(), "zero violations") })
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("faults:    %d shard crashes (1 in 32 requests)\n", asked); asked == 0 || !strings.Contains(printed, want) {
		t.Errorf("targets were asked for %d shard crashes; want the line %q in:\n%s", asked, want, printed)
	}
}

// recTarget is the in-process store as one worker, recording each call it
// is asked to make in the window — op and arguments, or the shard crashed —
// and what the store answered.
type recTarget struct {
	storeTarget
	calls, outs []string
	want        int
	reached     *sync.WaitGroup
}

func (t *recTarget) rec(out any, format string, args ...any) {
	t.calls = append(t.calls, fmt.Sprintf(format, args...))
	t.outs = append(t.outs, fmt.Sprintf("%+v", out))
	if len(t.calls) == t.want {
		t.reached.Done()
	}
}

func (t *recTarget) Get(key string, plan ...uint32) (runtime.Outcome[int], error) {
	out, err := t.storeTarget.Get(key, plan...)
	t.rec(out, "GET %s %v", key, plan)
	return out, err
}

func (t *recTarget) Put(key string, val int, plan ...uint32) (runtime.Outcome[int], error) {
	out, err := t.storeTarget.Put(key, val, plan...)
	t.rec(out, "PUT %s %d %v", key, val, plan)
	return out, err
}

func (t *recTarget) Del(key string, plan ...uint32) (runtime.Outcome[int], error) {
	out, err := t.storeTarget.Del(key, plan...)
	t.rec(out, "DEL %s %v", key, plan)
	return out, err
}

func (t *recTarget) MultiPut(entries []shardkv.KV) ([]runtime.Outcome[int], error) {
	outs, err := t.storeTarget.MultiPut(entries)
	t.rec(outs, "MPUT %v", entries)
	return outs, err
}

func (t *recTarget) CrashShard(i int) error {
	t.rec(nil, "CRASH %d", i)
	return t.storeTarget.CrashShard(i)
}

// recordedStorm runs cfg's storm on the real in-process store until every
// worker has made want calls, convicting nothing, and returns each worker's
// first want calls and the store's answers to them.
func recordedStorm(t *testing.T, cfg wlCfg, want int) (calls, outs [][]string) {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s := shardkv.New(cfg.shards, cfg.procs)
	var reached sync.WaitGroup
	reached.Add(cfg.procs)
	targets := make([]target, cfg.procs)
	for pid := range targets {
		targets[pid] = &recTarget{storeTarget: storeTarget{s, pid}, want: want, reached: &reached}
	}
	st, err := newStorm(&cfg, targets)
	if err != nil {
		t.Fatal(err)
	}
	var buf lockedBuffer
	st.violations.w = &buf
	if err := st.runWorkers(cfg.spec, func(time.Time) (int, error) {
		reached.Wait()
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := st.violations.Load(); n > 0 {
		t.Fatalf("%d violations:\n%s", n, buf.buf.String())
	}
	for _, tg := range targets {
		rt := tg.(*recTarget)
		calls, outs = append(calls, rt.calls[:want]), append(outs, rt.outs[:want])
	}
	return calls, outs
}

// TestCrashStormReplays: an in-process crash storm is a function of its
// seed. With one worker, two runs make the same calls — shard crashes
// included — and get the same answers, whatever GOMAXPROCS; another seed
// makes other calls. With four, each worker's calls, and so where its
// shard crashes fall and which shards, are the same run to run.
func TestCrashStormReplays(t *testing.T) {
	const want = 5000
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, cfg := range []wlCfg{
		{mixName: "crash-storm", dist: "uniform", procs: 1, shards: 4, keys: 16, seed: 5},
		{mixName: "crash-storm", dist: "zipf", theta: 0.99, mput: 4, procs: 1, shards: 4, keys: 16, seed: 5},
	} {
		var calls, outs [][]string
		for _, procs := range []int{1, 2} {
			goruntime.GOMAXPROCS(procs)
			c, o := recordedStorm(t, cfg, want)
			if calls == nil {
				calls, outs = c, o
			}
			for i := range want {
				if c[0][i] != calls[0][i] || o[0][i] != outs[0][i] {
					t.Fatalf("%s at GOMAXPROCS %d: record %d is %s → %s, was %s → %s",
						cfg.dist, procs, i, c[0][i], o[0][i], calls[0][i], outs[0][i])
				}
			}
		}
		if crashes(calls[0]) == 0 {
			t.Errorf("%s: no shard crash in %d records", cfg.dist, want)
		}
		reseeded := cfg
		reseeded.seed++
		if c, _ := recordedStorm(t, reseeded, want); slices.Equal(c[0], calls[0]) {
			t.Errorf("%s: seeds %d and %d made the same calls", cfg.dist, cfg.seed, reseeded.seed)
		}
	}
	cfg := wlCfg{mixName: "crash-storm", dist: "zipf", theta: 0.99, procs: 4, shards: 4, keys: 16, seed: 5}
	first, _ := recordedStorm(t, cfg, want)
	again, _ := recordedStorm(t, cfg, want)
	for pid := range first {
		if !slices.Equal(first[pid], again[pid]) {
			t.Errorf("worker %d made different calls, shard crashes included, in two runs of one seed", pid)
		}
	}
}
