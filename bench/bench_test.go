package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"detectable/internal/durable"
)

// testConfig is a run short enough for the test suite: 300 ms, 64 keys.
func testConfig(t *testing.T, spec workloadSpec) runConfig {
	return runConfig{spec: spec, seed: 1, seconds: 300 * time.Millisecond, keys: 64, tmpRoot: t.TempDir(), outDir: t.TempDir()}
}

// leakCheck fails the test if, once it ends, the run left a goroutine, an
// open descriptor (a listener, a connection, a file) or anything under its
// scratch directory behind.
func leakCheck(t *testing.T, tmpRoot string) {
	t.Helper()
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond) // connection handlers exit just after their socket closes
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines before the run, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
		}
		if n := openFDs(t); n > fds {
			t.Errorf("%d open descriptors before the run, %d after", fds, n)
		}
		left, err := os.ReadDir(tmpRoot)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("scratch directory still holds %s", e.Name())
		}
	})
}

func openFDs(t *testing.T) int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count descriptors with")
	}
	return len(entries)
}

// checkMetrics requires res to hold exactly the metrics of defs, each
// finite and well named.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	wellNamed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", d.Name)
		case !wellNamed.MatchString(d.Name):
			t.Errorf("metric name %q is not of the allowed form", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v is not finite", d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if res.Violations != 0 || res.Failed != 0 || !res.Correct {
		t.Errorf("violations=%d failed=%d correct=%v first error %q", res.Violations, res.Failed, res.Correct, res.FirstError)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := testConfig(t, spec)
			leakCheck(t, cfg.tmpRoot)
			res, err := runUntraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			for _, d := range ungated {
				if _, ok := res.Info[d.Name]; !ok {
					t.Errorf("ungated metric %s is missing from the untraced run's info", d.Name)
				}
			}
			if res, err = runTraced(cfg); err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if _, err := os.Stat(cfg.outDir + "/" + spec.Name + ".trace.json"); err != nil {
				t.Error(err)
			}
		})
	}
}

// dropSyncFs is the mutant: a filesystem whose files report a successful
// Sync without syncing.
type dropSyncFs struct{ durable.Fs }

type dropSyncFile struct{ durable.File }

func (dropSyncFile) Sync() error { return nil }

func (m dropSyncFs) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := m.Fs.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return dropSyncFile{f}, nil
}

// The crash-image check must have teeth: with fsyncs silently dropped,
// every operation still succeeds and every live read is still right, and
// only the image cut to synced lengths can tell.
func TestDroppedFsyncIsConvicted(t *testing.T) {
	for _, name := range []string{"dur-mix-zipf", "repl-put-read"} {
		t.Run(name, func(t *testing.T) {
			spec, _ := findWorkload(name)
			cfg := testConfig(t, spec)
			cfg.wrapFs = func(fs durable.Fs) durable.Fs { return dropSyncFs{fs} }
			leakCheck(t, cfg.tmpRoot)
			res, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violations == 0 || res.Correct {
				t.Errorf("violations=%d correct=%v with every fsync dropped, want a conviction", res.Violations, res.Correct)
			}
			if res.Failed != 0 {
				t.Errorf("failed=%d: the mutant must be invisible to the operations themselves", res.Failed)
			}
		})
	}
}

// failOpenFs fails every OpenFile after the first n.
type failOpenFs struct {
	durable.Fs
	left *int
}

func (f failOpenFs) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	if *f.left--; *f.left < 0 {
		return nil, errors.New("injected open failure")
	}
	return f.Fs.OpenFile(path, flag, perm)
}

func TestFailedRunLeavesNothingBehind(t *testing.T) {
	spec, _ := findWorkload("repl-put-read")
	for _, run := range []func(runConfig) (*result, error){runUntraced, runTraced} {
		for _, opens := range []int{0, 3, 13} { // fail in the primary's open, mid-open, and in the standby's
			cfg := testConfig(t, spec)
			left := opens
			cfg.wrapFs = func(fs durable.Fs) durable.Fs { return failOpenFs{fs, &left} }
			func() {
				leakCheck(t, cfg.tmpRoot)
				if _, err := run(cfg); err == nil {
					t.Errorf("run succeeded with OpenFile failing after %d calls", opens)
				}
			}()
		}
	}
}

// A connection that gives up on a dead server must leave a run that still
// reports: failed operations counted, every slice's sample range in order.
func TestGivingUpStillReports(t *testing.T) {
	spec, _ := findWorkload("repl-put-read")
	cfg := testConfig(t, spec)
	leakCheck(t, cfg.tmpRoot)
	st, err := startStack(stackConfig{replica: true, keys: cfg.keys, tmpRoot: cfg.tmpRoot})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := dialTraffic(spec, st, cfg.seed)
	if err != nil {
		st.close() //nolint:errcheck
		t.Fatal(err)
	}
	defer tr.close()
	tr.prepare(cfg.seconds, nil)
	// The default policy rides a dead server for 200 ms a call.
	tr.reader.c.SetRedialPolicy(1, time.Millisecond)
	for _, w := range tr.workers {
		w.c.SetRedialPolicy(1, time.Millisecond)
	}
	if err := st.close(); err != nil { // every request from here on fails
		t.Fatal(err)
	}
	p := newPhases(time.Now(), 0, cfg.seconds, windowSlices)
	tr.run(p)
	attempted, failed, _, firstErr := tr.totals()
	if failed == 0 || failed != attempted || firstErr == nil {
		t.Errorf("attempted=%d failed=%d first error %v on a closed stack", attempted, failed, firstErr)
	}
	for kind := opGet; kind < numOpKinds; kind++ {
		if n := len(tr.latencies(kind, 1, p.slices()+1)); n != 0 {
			t.Errorf("%d latency samples of kind %d from operations that all failed", n, kind)
		}
	}
	if n := len(tr.replicaLatencies(1, p.slices()+1)); n != 0 {
		t.Errorf("%d latency samples from replica GETs that all failed", n)
	}
}

func TestLatencySamplesSaturate(t *testing.T) {
	for d, want := range map[time.Duration]uint32{
		-time.Second:          0,
		17 * time.Microsecond: 17000,
		4294967295:            math.MaxUint32,
		5 * time.Second:       math.MaxUint32, // wraps to 705 ms in a plain conversion
	} {
		if got := sat32(d); got != want {
			t.Errorf("sat32(%v) = %d, want %d", d, got, want)
		}
	}
}

// BENCHMARK.json at the repository root is what the driver reads; the
// tables in metrics.go and workload.go are what the program reports. They
// must say the same thing.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark's directory:", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the tables %d, %d and %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the table (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) → [q1, median, q3]
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20, 30}, 10, 30},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.vals); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "get_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, []float64{101, 100, 99, 102, 100}, "ok"},
		{"slower beyond the bound", lower, steady, []float64{120, 121, 119, 122, 120}, "regressed"},
		{"slower within the bound", lower, steady, []float64{105, 106, 104, 105, 107}, "ok"},
		{"throughput down", higher, steady, []float64{80, 81, 79, 80, 82}, "regressed"},
		{"throughput up", higher, steady, []float64{120, 121, 119, 122, 120}, "ok"},
		{"too noisy to tell", lower, []float64{100, 140, 70, 120, 90}, []float64{110, 150, 80, 95, 130}, "unresolved"},
		{"noisy but every run better", lower, []float64{100, 140, 170, 120, 190}, []float64{50, 60, 40, 90, 80}, "ok"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReadsResultSets(t *testing.T) {
	write := func(dir string, run string, setup float64, correct bool) {
		res := &result{Workload: "mem-get", Correct: correct, Attempted: 1, Metrics: map[string]metric{
			"setup_s": {Value: setup, Unit: "s"},
		}}
		if err := writeResult(dir+"/"+run, res); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	for i, setup := range []float64{1, 1.01, 0.99, 1.005, 0.995} {
		run := string(rune('0' + i))
		write(a, run, setup, true)
		write(b, run, setup*1.01, true)
		write(c, run, setup*1.3, true)
	}
	var out strings.Builder
	if regressed, err := runCompare(&out, a, b); err != nil || regressed {
		t.Errorf("equal sets: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := runCompare(&out, a, c); err != nil || !regressed || !strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower set: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if _, err := runCompare(&out, a, t.TempDir()); err == nil {
		t.Error("comparing against an empty directory succeeded")
	}
}
