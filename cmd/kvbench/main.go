// Command kvbench is a benchmark client for the detectable KV server: for
// each requested connection count it opens that many sessions, drives one
// operation stream per session for the configured duration, and reports
// aggregate throughput plus p50/p99 operation latency.
//
// Two load models:
//
//   - Closed loop (default): each connection issues the next request the
//     moment the previous reply lands. Throughput is whatever the server
//     sustains; latency percentiles describe only the server's service
//     time.
//   - Paced (-rate R): each connection issues R requests/sec on a fixed
//     schedule, and every operation's latency is measured from its
//     *intended* start time, not from when the request actually got sent.
//     A slow reply that delays the requests queued behind it therefore
//     charges that queueing delay to those requests — the standard fix for
//     coordinated omission, where a closed loop silently stops sampling
//     exactly while the server is at its worst. Paced percentiles are the
//     ones that predict what an open workload would experience.
//
// Against a durable server, mutation replies wait for the commit barrier,
// so -getpct 10 (write-heavy) with -rate exposes the fsync schedule
// directly: group commit amortizes one sync across an epoch, and a lone
// connection pays one per put.
//
// Usage:
//
//	kvbench -addr host:port [-conns 1,4] [-dur 2s] [-keys 512] [-getpct 50]
//	        [-dist uniform|zipf] [-theta 0.99]
//	        [-rate 2000] [-mput 16]
//	kvbench -selftest [-shards 4] ...
//	kvbench -server-bin ./kvserverd [-data dir] ...
//
// -selftest starts an in-process non-durable server on a loopback port and
// benches that (still over real TCP), so the binary is runnable with no
// external daemon — smoke tests use it. -server-bin instead spawns a real
// kvserverd (durable when -data is given or defaulted to a temp dir) and
// benches the full served path through internal/harness, which reaps the
// child on every exit path.
//
// kvbench only prints: a machine line (CPUs, GOMAXPROCS, Go version, the
// data directory's filesystem) and one line per connection count. The
// repository's record of performance is bench/ + BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"detectable/internal/client"
	"detectable/internal/harness"
	"detectable/internal/server"
	"detectable/internal/shardkv"
	"detectable/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "server address (host:port)")
	selftest := flag.Bool("selftest", false, "start an in-process server on a loopback port and bench it")
	serverBin := flag.String("server-bin", "", "spawn this kvserverd binary on a loopback port and bench it")
	dataDir := flag.String("data", "", "durable data directory for -server-bin (empty = fresh temp dir)")
	shards := flag.Int("shards", 4, "shards for the -selftest or -server-bin server")
	connsFlag := flag.String("conns", "1,4", "comma-separated connection counts to bench")
	dur := flag.Duration("dur", 2*time.Second, "measured duration per connection count")
	keys := flag.Int("keys", 512, "key-space size")
	getPct := flag.Int("getpct", 50, "percentage of operations that are reads")
	dist := flag.String("dist", "uniform", "key distribution: uniform or zipf (rank 0 hottest)")
	theta := flag.Float64("theta", 0.99, "Zipfian skew exponent for -dist zipf")
	mput := flag.Int("mput", 0, "batch writes: each write is an MPUT of this many entries (0 = single puts)")
	rate := flag.Float64("rate", 0, "paced mode: requests/sec per connection, latency from intended start (0 = closed loop)")
	seed := flag.Int64("seed", 1, "randomness seed")
	flag.Parse()
	w := load{
		dur: *dur, keys: *keys, getPct: *getPct, dist: *dist, theta: *theta,
		mput: *mput, rate: *rate, seed: *seed,
	}
	srv := &serverSpec{bin: *serverBin, dataDir: *dataDir, shards: *shards}
	connCounts, err := parseConns(*connsFlag)
	if err == nil {
		err = run(*addr, *selftest, srv, connCounts, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
}

// parseConns parses a connection-count sweep such as "1,4,16".
func parseConns(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad connection count %q in %q", part, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// load is what every measured connection does: the operation mix, the key
// distribution and the load model.
type load struct {
	dur    time.Duration
	keys   int
	getPct int
	dist   string
	theta  float64
	mput   int     // > 0: each write is an MPUT of this many entries
	rate   float64 // > 0: paced requests/sec per connection
	seed   int64
}

// serverSpec is the kvserverd a -server-bin run spawns.
type serverSpec struct {
	bin, dataDir string
	shards       int
	temp         bool // dataDir is a temp dir start made
}

// start spawns the server through internal/harness, in a fresh temp
// directory when -data named none.
func (sp *serverSpec) start(procs int) (_ *harness.Cluster, err error) {
	if sp.dataDir == "" {
		if sp.dataDir, err = os.MkdirTemp("", "kvbench-data-"); err != nil {
			return nil, err
		}
		sp.temp = true
	}
	return harness.Start(harness.Config{
		Name: "kvbench", Bin: sp.bin, Dir: sp.dataDir,
		Shards: sp.shards, Procs: procs,
	}, false)
}

// rmTemp removes a temp data directory unless the run failed — the
// cluster's Close has then said where the data was retained. Deferred ahead
// of Close, so that it runs after it.
func (sp *serverSpec) rmTemp(errp *error) {
	if sp.temp && *errp == nil {
		os.RemoveAll(sp.dataDir)
	}
}

func run(addr string, selftest bool, srv *serverSpec, connCounts []int, w load) (err error) {
	if w.dist != "uniform" && w.dist != "zipf" {
		return fmt.Errorf("unknown -dist %q (want uniform or zipf)", w.dist)
	}
	if w.theta < 0 {
		return fmt.Errorf("need -theta ≥ 0 (got %g)", w.theta)
	}
	modes := 0
	for _, on := range []bool{addr != "", selftest, srv.bin != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -addr, -selftest and -server-bin is required")
	}
	if w.keys < 1 || w.getPct < 0 || w.getPct > 100 || w.mput < 0 || w.rate < 0 {
		return fmt.Errorf("need keys ≥ 1, 0 ≤ getpct ≤ 100, mput ≥ 0, rate ≥ 0")
	}

	maxConns := slices.Max(connCounts)
	switch {
	case selftest:
		s := server.New(shardkv.New(srv.shards, maxConns))
		if err := s.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer s.Close()
		addr = s.Addr().String()
		fmt.Printf("selftest server: addr=%s shards=%d procs=%d\n", addr, srv.shards, maxConns)
	case srv.bin != "":
		var cluster *harness.Cluster
		if cluster, err = srv.start(maxConns); err != nil {
			return err
		}
		defer srv.rmTemp(&err)
		defer cluster.Close(&err)
		addr, _ = cluster.Addrs()
		fmt.Printf("spawned server: addr=%s shards=%d procs=%d data=%s\n", addr, srv.shards, maxConns, srv.dataDir)
	}

	fmt.Println(machineLine(srv.dataDir))
	fmt.Printf("target=%s dur=%s keys=%d getpct=%d dist=%s theta=%g mput=%d rate=%.0f/conn\n",
		addr, w.dur, w.keys, w.getPct, w.dist, w.theta, w.mput, w.rate)
	for _, n := range connCounts {
		if err := benchPhase(addr, n, w); err != nil {
			return fmt.Errorf("conns=%d: %w", n, err)
		}
	}
	return nil
}

// machineLine says where the numbers below it were measured: a throughput
// without its machine is not comparable with anything. dataDir is the
// spawned server's data directory, empty when the server is not ours.
func machineLine(dataDir string) string {
	line := fmt.Sprintf("machine: cpus=%d gomaxprocs=%d go=%s os=%s/%s",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), goruntime.GOOS, goruntime.GOARCH)
	if fs := fsType(dataDir); fs != "" {
		line += " data-fs=" + fs
	}
	return line
}

// fsType names the filesystem dir is on — the type of the longest mount
// point in /proc/mounts that contains it — or "" where that cannot be read.
func fsType(dir string) string {
	if dir == "" {
		return ""
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return ""
	}
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	if real, err := filepath.EvalSymlinks(dir); err == nil {
		dir = real
	}
	best, fs := "", ""
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line) // device, mount point, type, ...
		if len(f) < 3 || len(f[1]) < len(best) {
			continue
		}
		if mp := f[1]; mp == "/" || dir == mp || strings.HasPrefix(dir, mp+"/") {
			best, fs = mp, f[2]
		}
	}
	return fs
}

// benchPhase runs one stream per connection for w.dur and prints one
// report line.
func benchPhase(addr string, conns int, w load) error {
	clients := make([]*client.Client, conns)
	for i := range clients {
		c, err := client.Dial(addr)
		if err != nil {
			return fmt.Errorf("dial %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
	}
	// Warm the key space on one connection before timing anything, so that
	// the measured window holds only steady-state operations: reads of live
	// registers and overwrites of existing keys. Creating a key is cheap
	// (137 NVM cells in ~80 B at 8 slots) but it is a different path: an
	// insert into the shard's key table, now and then a doubling of it.
	if err := warmKeys(clients[0], w.keys); err != nil {
		return err
	}
	lats, elapsed, err := drive(clients, w)
	if err != nil {
		return err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return fmt.Errorf("no operations completed")
	}
	slices.Sort(all)
	fmt.Printf("conns=%d ops=%d throughput=%.0f ops/sec p50=%s p99=%s max=%s\n",
		conns, len(all), float64(len(all))/elapsed.Seconds(),
		percentile(all, 50), percentile(all, 99), all[len(all)-1])
	return nil
}

// warmKeys creates every key's register in MPUT chunks, with a nonzero
// value so that reads land on live registers.
func warmKeys(c *client.Client, keys int) error {
	const chunk = 64
	warm := make([]shardkv.KV, 0, chunk)
	for k := 0; k < keys; k += chunk {
		warm = warm[:0]
		for j := k; j < keys && j < k+chunk; j++ {
			warm = append(warm, shardkv.KV{Key: "bench-" + strconv.Itoa(j), Val: j + 1})
		}
		if _, err := c.MultiPut(warm); err != nil {
			return fmt.Errorf("key-space warm-up: %w", err)
		}
	}
	return nil
}

// drive runs one operation stream per client for w.dur and returns every
// connection's latencies plus the window's length. With w.rate > 0, each
// stream issues requests on a fixed schedule and measures latency from the
// intended start time (coordinated-omission corrected); with w.rate == 0 it
// is a closed loop timing only service time.
func drive(clients []*client.Client, w load) ([][]time.Duration, time.Duration, error) {
	var interval time.Duration
	if w.rate > 0 {
		interval = time.Duration(float64(time.Second) / w.rate)
	}
	lats := make([][]time.Duration, len(clients)) // per-worker, merged after the run
	errs := make([]error, len(clients))
	start := time.Now()
	deadline := start.Add(w.dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workload.WorkerSeed(w.seed, len(clients), i)))
			// nextKey is the phase's key chooser: Zipfian rank draw ("bench-0"
			// hottest, concentrating the stream on a few shards) or uniform.
			nextKey := func() string { return "bench-" + strconv.Itoa(rng.Intn(w.keys)) }
			if w.dist == "zipf" {
				z := workload.NewZipf(rng, w.keys, w.theta)
				nextKey = func() string { return "bench-" + strconv.Itoa(z.Next()) }
			}
			entries := make([]shardkv.KV, w.mput)
			for k := 0; ; k++ {
				// The intended start is the schedule slot in paced mode —
				// never pushed back by a slow predecessor — and "now" in
				// closed-loop mode. Late slots are issued immediately,
				// back to back, until the stream catches up; their
				// latency still counts from the slot time.
				intended := time.Now()
				if interval > 0 {
					intended = start.Add(time.Duration(k) * interval)
					if sleep := time.Until(intended); sleep > 0 {
						time.Sleep(sleep)
					}
				}
				if !intended.Before(deadline) {
					return
				}
				// A register holds a signed value of 64 − (⌈log₂N⌉+1)
				// bits and the server refuses any other, so a PUT value is
				// an Int31: in the domain of every server with N ≤ 2^31.
				var err error
				switch {
				case rng.Intn(100) < w.getPct:
					_, err = c.Get(nextKey())
				case w.mput > 0:
					for j := range entries {
						entries[j] = shardkv.KV{Key: nextKey(), Val: int(rng.Int31())}
					}
					_, err = c.MultiPut(entries)
				default:
					_, err = c.Put(nextKey(), int(rng.Int31()))
				}
				if err != nil {
					errs[i] = err
					return
				}
				lats[i] = append(lats[i], time.Since(intended))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return lats, elapsed, nil
}

// percentile returns the p-th percentile of sorted latencies.
func percentile(sorted []time.Duration, p int) time.Duration {
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}
