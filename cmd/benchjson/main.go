// Command benchjson runs the curated benchmark set (internal/benchsuite)
// via testing.Benchmark plus the wire selftest, and records the numbers in
// a persistent JSON trajectory (BENCH_PR3.json and successors) that future
// PRs diff against. It is also the CI allocation gate: -check re-measures
// the pinned hot paths (crash-free Get, wire frame encode) and fails when
// they regress above the committed thresholds.
//
// Usage:
//
//	benchjson -label after -out BENCH_PR3.json            # run + record
//	benchjson -label after -in BENCH_PR3.json -out ...    # merge into existing trajectory
//	benchjson -check                                      # allocation gate only
//	benchjson -check -label after -out BENCH_PR3.json     # gate + record
//
// Reading the output: every section under "benchmarks" is one labeled run
// (e.g. "baseline", "after") holding ns/op, B/op and allocs/op per curated
// benchmark and p50/p99 latency of the TCP closed loop. Compare sections
// pairwise for the before→after trajectory; see docs/PERFORMANCE.md.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strconv"
	"testing"
	"time"

	"detectable/internal/benchsuite"
	"detectable/internal/durable"
	"detectable/internal/server"
	"detectable/internal/shardkv"
	"detectable/internal/simio"
	"detectable/internal/workload"
)

// Result is one benchmark's recorded numbers.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Section is one labeled run of the full suite.
type Section struct {
	Generated string                  `json:"generated,omitempty"`
	Go        string                  `json:"go"`
	Note      string                  `json:"note,omitempty"`
	Results   map[string]Result       `json:"results"`
	Wire      []benchsuite.WireResult `json:"wire,omitempty"`
	Pins      map[string]float64      `json:"pins,omitempty"`
}

// Doc is the whole trajectory file.
type Doc struct {
	Schema     string              `json:"schema"`
	Benchmarks map[string]*Section `json:"benchmarks"`
}

// Allocation ceilings for the pinned hot paths. CI fails when a measured
// value exceeds its ceiling. The two AllocsPerRun pins are exact promises
// of this PR: a crash-free Get allocates nothing and encoding a frame into
// a warm scratch buffer allocates nothing (ceiling 1 leaves room for a
// one-off growth); the per-benchmark ceilings guard against reintroducing
// per-op allocation churn with ~2× headroom over measured values.
var allocCeilings = map[string]float64{
	"pin/crash-free-get-allocs":               0,
	"pin/wire-encode-allocs-frame":            1,
	"pin/served-mput-allocs":                  0,
	"pin/replica-get-allocs":                  0,
	"BenchmarkShardKV/shards=1":               6,
	"BenchmarkShardKV/shards=8":               6,
	"BenchmarkCASDetectableContended/procs=8": 8,
	"BenchmarkWriteDetectable/N=8":            8,
	"BenchmarkServedMultiPut/shards=8":        0,
	// The PR 8 skew benches: the lock-free key-table read path must stay
	// allocation-free under Zipfian hot-key traffic.
	"BenchmarkKeyTableReadZipf/theta=0.9/table=lockfree": 0,
	"BenchmarkKeyTableReadZipf/theta=1.2/table=lockfree": 0,
	"BenchmarkShardKVZipf/theta=1.2/table=lockfree":      1,
}

func main() {
	out := flag.String("out", "", "write the trajectory JSON here (empty: stdout)")
	in := flag.String("in", "", "existing trajectory to merge the new section into")
	label := flag.String("label", "after", "section name for this run")
	note := flag.String("note", "", "free-form note stored with the section")
	check := flag.Bool("check", false, "measure the pinned hot paths and fail on regression")
	checkOnly := flag.Bool("checkonly", false, "run only the allocation gate, no benchmarks")
	shards := flag.Int("shards", 4, "shards for the wire selftest server")
	wireConns := flag.String("wireconns", "1,4", "connection counts for the wire selftest")
	wireDur := flag.Duration("wiredur", 2*time.Second, "duration per wire selftest phase")
	skipWire := flag.Bool("skipwire", false, "skip the TCP selftest phase")
	flag.Parse()

	if err := run(*out, *in, *label, *note, *check, *checkOnly, *shards, *wireConns, *wireDur, *skipWire); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out, in, label, note string, check, checkOnly bool, shards int, wireConns string, wireDur time.Duration, skipWire bool) error {
	pins := measurePins()
	if check || checkOnly {
		if err := gate(pins); err != nil {
			return err
		}
		fmt.Println("allocation gate: ok")
		fmt.Printf("  crash-free Get     %.0f allocs/op (ceiling %.0f)\n",
			pins["pin/crash-free-get-allocs"], allocCeilings["pin/crash-free-get-allocs"])
		fmt.Printf("  wire frame encode  %.0f allocs/frame (ceiling %.0f)\n",
			pins["pin/wire-encode-allocs-frame"], allocCeilings["pin/wire-encode-allocs-frame"])
		fmt.Printf("  served MPUT        %.0f allocs/op (ceiling %.0f)\n",
			pins["pin/served-mput-allocs"], allocCeilings["pin/served-mput-allocs"])
		fmt.Printf("  replica GET        %.0f allocs/op (ceiling %.0f)\n",
			pins["pin/replica-get-allocs"], allocCeilings["pin/replica-get-allocs"])
		if checkOnly {
			return nil
		}
	}

	sec := &Section{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        goruntime.Version(),
		Note:      note,
		Results:   make(map[string]Result),
		Pins:      pins,
	}

	for _, nb := range benchsuite.Curated() {
		r := testing.Benchmark(nb.Bench)
		res := Result{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BPerOp:      r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		sec.Results[nb.Name] = res
		fmt.Printf("%-46s %12.1f ns/op %8d B/op %6d allocs/op\n", nb.Name, res.NsPerOp, res.BPerOp, res.AllocsPerOp)
		if check {
			if ceil, ok := allocCeilings[nb.Name]; ok && float64(res.AllocsPerOp) > ceil {
				return fmt.Errorf("alloc regression: %s at %d allocs/op exceeds ceiling %.0f", nb.Name, res.AllocsPerOp, ceil)
			}
		}
	}

	if !skipWire {
		conns, err := workload.ParseConns(wireConns)
		if err != nil {
			return err
		}
		wire, err := benchsuite.WireSelftest(shards, conns, wireDur, 512, 1)
		if err != nil {
			return fmt.Errorf("wire selftest: %w", err)
		}
		sec.Wire = wire
		for _, w := range wire {
			fmt.Printf("wire conns=%-3d %10.0f ops/sec  p50=%s p99=%s\n",
				w.Conns, w.Throughput, time.Duration(w.P50Ns), time.Duration(w.P99Ns))
		}
	}

	doc := &Doc{Schema: "detectable-bench-trajectory/v1", Benchmarks: map[string]*Section{}}
	if in != "" {
		data, err := os.ReadFile(in)
		if err != nil {
			return fmt.Errorf("reading -in: %w", err)
		}
		if err := json.Unmarshal(data, doc); err != nil {
			return fmt.Errorf("parsing -in: %w", err)
		}
	}
	doc.Benchmarks[label] = sec

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// measurePins runs the AllocsPerRun pins of the hot paths this PR froze.
func measurePins() map[string]float64 {
	pins := make(map[string]float64)

	// Crash-free Get on the atomic fast path: 0 allocs/op.
	s := shardkv.New(4, 2)
	s.PutRetry(0, "pin-key", 7)
	pins["pin/crash-free-get-allocs"] = testing.AllocsPerRun(500, func() {
		s.Get(0, "pin-key")
	})

	// Wire frame encode + buffered write into a warm session scratch:
	// ≤1 alloc/frame (0 measured).
	buf := make([]byte, 0, 256)
	bw := bufio.NewWriter(io.Discard)
	pins["pin/wire-encode-allocs-frame"] = testing.AllocsPerRun(500, func() {
		buf = server.AppendPut(buf[:0], 1, 0, "pin-key", 42)
		server.WriteFrameBuffered(bw, buf)
		bw.Flush()
	})

	// The served MPUT path end to end (minus the socket): 0 allocs/op
	// once warm — the group-commit PR's serving promise. The warm-up
	// settles the outcome window's recycled entry buffers.
	store := shardkv.New(8, 2)
	srv := server.New(store)
	ls, err := srv.NewLoopbackSession()
	if err != nil {
		pins["pin/served-mput-allocs"] = -1 // impossible; fail loud in gate output
		return pins
	}
	defer ls.Close()
	entries := make([]shardkv.KV, 64)
	for i := range entries {
		entries[i] = shardkv.KV{Key: fmt.Sprintf("key-%d", i), Val: i}
	}
	payload := server.AppendMPut(nil, 0, entries)
	for i := 0; i < 2*server.Window; i++ {
		server.PatchReqID(payload, ls.NextID())
		ls.Handle(payload)
	}
	pins["pin/served-mput-allocs"] = testing.AllocsPerRun(200, func() {
		server.PatchReqID(payload, ls.NextID())
		ls.Handle(payload)
	})

	// The replica GET path end to end (minus the socket): a genuine
	// standby server over a durable DB whose applied view was populated
	// through the real replication stream (Subscribe → Apply), serving a
	// read-only session — 0 allocs/op, the read-replica PR's promise.
	replicaGet, err := measureReplicaGetPin()
	if err != nil {
		replicaGet = -1 // impossible; fail loud in gate output
	}
	pins["pin/replica-get-allocs"] = replicaGet
	return pins
}

// measureReplicaGetPin builds a primary DB on the simulated filesystem,
// streams a small workload through a replication subscription into a
// standby DB, and measures the standby's read-only GET serving path.
func measureReplicaGetPin() (float64, error) {
	const (
		pinShards = 4
		pinProcs  = 2
	)
	pdb, err := durable.OpenFs(simio.New(), "/data", pinShards, pinProcs, server.Window)
	if err != nil {
		return 0, err
	}
	sub := pdb.Subscribe(0, false)
	if err := pdb.AppendHello(1, 0); err != nil {
		return 0, err
	}
	for i := 0; i < 64; i++ {
		key := "pin-" + strconv.Itoa(i)
		pdb.ShardBacking(shardkv.ShardIndex(key, pinShards)).Persist(key, int64(i+1))
		if err := pdb.CommitOutcome(1, uint64(i+1), []byte{1}); err != nil {
			return 0, err
		}
	}
	sub.Close()

	rdb, err := durable.OpenFs(simio.New(), "/data", pinShards, pinProcs, server.Window)
	if err != nil {
		return 0, err
	}
	rp := rdb.NewReplica()
	for {
		chunk, err := sub.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		for len(chunk) > 0 {
			n := int(binary.BigEndian.Uint32(chunk))
			if _, _, err := rp.Apply(chunk[4 : 4+n]); err != nil {
				return 0, err
			}
			chunk = chunk[4+n:]
		}
	}

	srv := server.NewStandby(rdb, func() *shardkv.Store {
		return shardkv.New(pinShards, pinProcs) // promotion never happens in the pin
	})
	ls, err := srv.NewReadOnlyLoopbackSession()
	if err != nil {
		return 0, err
	}
	defer ls.Close()
	payload := server.AppendGet(nil, 1, 0, "pin-7")
	for i := 0; i < 2*server.Window; i++ {
		server.PatchReqID(payload, ls.NextID())
		ls.Handle(payload)
	}
	return testing.AllocsPerRun(200, func() {
		server.PatchReqID(payload, ls.NextID())
		ls.Handle(payload)
	}), nil
}

func gate(pins map[string]float64) error {
	for name, v := range pins {
		if ceil, ok := allocCeilings[name]; ok && v > ceil {
			return fmt.Errorf("alloc regression: %s at %.1f allocs exceeds ceiling %.0f", name, v, ceil)
		}
	}
	return nil
}
