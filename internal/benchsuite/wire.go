package benchsuite

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"detectable/internal/client"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// WireResult is one closed-loop TCP measurement: aggregate throughput and
// operation latency percentiles for a given connection count.
type WireResult struct {
	Conns      int     `json:"conns"`
	Ops        int     `json:"ops"`
	Throughput float64 `json:"throughput_ops_sec"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
}

// WireSelftest starts an in-process detectable KV server on a loopback
// port and drives one closed loop (50/50 get:put over keys) per
// connection, for dur, per element of conns — the kvbench selftest
// distilled into a library call so cmd/benchjson can record p50/p99 in
// the trajectory.
func WireSelftest(shards int, conns []int, dur time.Duration, keys int, seed int64) ([]WireResult, error) {
	maxConns := 0
	for _, n := range conns {
		if n > maxConns {
			maxConns = n
		}
	}
	srv := server.New(shardkv.New(shards, maxConns))
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	var out []WireResult
	for _, n := range conns {
		r, err := wirePhase(addr, n, dur, keys, seed)
		if err != nil {
			return nil, fmt.Errorf("conns=%d: %w", n, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func wirePhase(addr string, conns int, dur time.Duration, keys int, seed int64) (WireResult, error) {
	clients := make([]*client.Client, conns)
	for i := range clients {
		c, err := client.Dial(addr)
		if err != nil {
			return WireResult{}, fmt.Errorf("dial %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
	}

	lats := make([][]time.Duration, conns)
	errs := make([]error, conns)
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			for time.Now().Before(deadline) {
				key := "bench-" + strconv.Itoa(rng.Intn(keys))
				opStart := time.Now()
				var err error
				if rng.Intn(100) < 50 {
					_, err = c.Get(key)
				} else {
					_, err = c.Put(key, rng.Int())
				}
				if err != nil {
					errs[i] = err
					return
				}
				lats[i] = append(lats[i], time.Since(opStart))
			}
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return WireResult{}, err
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return WireResult{}, fmt.Errorf("no operations completed")
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return WireResult{
		Conns:      conns,
		Ops:        len(all),
		Throughput: float64(len(all)) / elapsed.Seconds(),
		P50Ns:      int64(percentile(all, 50)),
		P99Ns:      int64(percentile(all, 99)),
	}, nil
}

// ServedMultiPut returns the full served-MPUT body: one loopback session
// pushing a 64-entry MPUT frame through the server's whole request path —
// header decode, zero-copy key decode, batch fan-out, reply encode,
// outcome-window record — without a socket. The warm-up loop settles the
// outcome window's recycled entry buffers (the history ring's slots own no
// heap to warm), so the recorded allocs/op is the steady state the alloc
// gate pins at zero.
func ServedMultiPut(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		srv := server.New(shardkv.New(shards, 2))
		ls, err := srv.NewLoopbackSession()
		if err != nil {
			b.Fatal(err)
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
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			server.PatchReqID(payload, ls.NextID())
			ls.Handle(payload)
		}
	}
}

// percentile returns the p-th percentile of sorted latencies.
func percentile(sorted []time.Duration, p int) time.Duration {
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}
