// Package benchsuite holds the curated benchmark bodies shared by the
// repo's `go test -bench` harness (bench_test.go at the module root) and
// cmd/benchjson, which runs the same bodies via testing.Benchmark and
// emits the persistent BENCH_*.json trajectory. Keeping one definition in
// one place is what makes numbers comparable across PRs.
//
// All bodies use the production history configuration (a bounded ring per
// system — internal/shardkv's default) rather than the unbounded full log
// verification tests keep, because the trajectory tracks the production
// hot path.
package benchsuite

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/history"
	"detectable/internal/kv"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/shardkv"
	"detectable/internal/workload"
)

// ringSystem returns an N-process system with the production (ring)
// history configuration.
func ringSystem(procs int) *runtime.System {
	sys := runtime.NewSystem(procs)
	sys.SetHistory(history.NewRing(shardkv.DefaultRingCapacity))
	return sys
}

// ShardKV returns the mixed-workload body: procs concurrent processes
// hammer a 64-key space spread over shards partitions with a 3:1 put:get
// mix (always-succeeds NRL semantics). With one shard every process
// contends on a single system's space; more shards split the keys across
// independent NVM spaces.
func ShardKV(shards, procs int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s := shardkv.New(shards, procs)
		keys := make([]string, 64)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
			s.PutRetry(0, keys[i], 0) // pre-create the registers
		}
		var wg sync.WaitGroup
		each := b.N/procs + 1
		b.ResetTimer()
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					k := keys[(i*7+pid*13)%len(keys)]
					if i%4 == 0 {
						s.GetRetry(pid, k)
					} else {
						s.PutRetry(pid, k, i)
					}
				}
			}(p)
		}
		wg.Wait()
	}
}

// ShardKVZipf returns the skewed-workload body: procs concurrent processes
// draw keys from a seeded Zipfian distribution over a 256-key space spread
// across shards partitions, with a 3:1 get:put mix — the hot-key regime
// where one shard absorbs most of the traffic and the key table's read
// path dominates.
func ShardKVZipf(shards, procs int, theta float64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s := shardkv.New(shards, procs)
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
			s.PutRetry(0, keys[i], 0) // pre-create the registers
		}
		var wg sync.WaitGroup
		each := b.N/procs + 1
		b.ResetTimer()
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(workload.WorkerSeed(1, procs, pid)))
				z := workload.NewZipf(rng, len(keys), theta)
				for i := 0; i < each; i++ {
					k := keys[z.Next()]
					if i%4 == 0 {
						s.PutRetry(pid, k, i)
					} else {
						s.GetRetry(pid, k)
					}
				}
			}(p)
		}
		wg.Wait()
	}
}

// KeyTableReadZipf isolates the key-table read path the PR 8 tentpole
// replaced: procs concurrent readers resolve Zipfian-drawn keys through
// Store.Peek, so the measured cost is one table lookup plus a plain
// register load — nothing else. Under skew every reader hits the same few
// table entries; the copy-on-write table answers each with one uncontended
// atomic load where the RWMutex map it replaced serialized them on the lock
// word's cache line (the comparison on record in BENCH_PR8.json).
func KeyTableReadZipf(procs int, theta float64) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s := kv.New(ringSystem(procs))
		keys := make([]string, 256)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
			s.PutRetry(0, keys[i], i)
		}
		var wg sync.WaitGroup
		each := b.N/procs + 1
		b.ResetTimer()
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(workload.WorkerSeed(1, procs, pid)))
				z := workload.NewZipf(rng, len(keys), theta)
				for i := 0; i < each; i++ {
					s.Peek(keys[z.Next()])
				}
			}(p)
		}
		wg.Wait()
	}
}

// ShardKVMultiPut returns the batched-write body: one process putting a
// 64-entry batch grouped (and fanned out) across the shards.
func ShardKVMultiPut(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		s := shardkv.New(shards, 1)
		entries := make([]shardkv.KV, 64)
		for i := range entries {
			entries[i] = shardkv.KV{Key: fmt.Sprintf("key-%d", i), Val: i}
		}
		s.MultiPutRetry(0, entries)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.MultiPutRetry(0, entries)
		}
	}
}

// CASDetectableContended returns the contended detectable-CAS body: procs
// processes read-CAS-increment one shared object.
func CASDetectableContended(procs int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		sys := ringSystem(procs)
		o := rcas.NewInt(sys, 0)
		var wg sync.WaitGroup
		each := b.N/procs + 1
		b.ResetTimer()
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					out := o.Read(pid)
					o.Cas(pid, out.Resp, out.Resp+1)
				}
			}(p)
		}
		wg.Wait()
	}
}

// WriteDetectable returns the solo detectable-register write body for an
// N-process register (the write cost grows with N: one toggle-bit store
// per process).
func WriteDetectable(procs int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		sys := ringSystem(procs)
		reg := rw.NewInt(sys, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.Write(0, i)
		}
	}
}

// Named is one curated benchmark: a stable name (matching the go-test
// benchmark path) and its body.
type Named struct {
	Name  string
	Bench func(b *testing.B)
}

// Curated returns the benchmark set cmd/benchjson runs and records in the
// BENCH_*.json trajectory. Names match the `go test -bench` paths of the
// module-root harness so the two surfaces stay comparable.
func Curated() []Named {
	var out []Named
	for _, shards := range []int{1, 2, 4, 8} {
		out = append(out, Named{
			Name:  fmt.Sprintf("BenchmarkShardKV/shards=%d", shards),
			Bench: ShardKV(shards, 8),
		})
	}
	for _, procs := range []int{2, 4, 8} {
		out = append(out, Named{
			Name:  fmt.Sprintf("BenchmarkCASDetectableContended/procs=%d", procs),
			Bench: CASDetectableContended(procs),
		})
	}
	for _, procs := range []int{1, 8, 32} {
		out = append(out, Named{
			Name:  fmt.Sprintf("BenchmarkWriteDetectable/N=%d", procs),
			Bench: WriteDetectable(procs),
		})
	}
	for _, shards := range []int{1, 8} {
		out = append(out, Named{
			Name:  fmt.Sprintf("BenchmarkShardKVMultiPut/shards=%d", shards),
			Bench: ShardKVMultiPut(shards),
		})
	}
	// "/table=lockfree" is what is left of the sweep over both key tables:
	// benchjson's allocCeilings and the committed trajectory key on it.
	for _, theta := range []float64{0.9, 1.2} {
		out = append(out, Named{
			Name:  fmt.Sprintf("BenchmarkShardKVZipf/theta=%g/table=lockfree", theta),
			Bench: ShardKVZipf(4, 8, theta),
		})
		out = append(out, Named{
			Name:  fmt.Sprintf("BenchmarkKeyTableReadZipf/theta=%g/table=lockfree", theta),
			Bench: KeyTableReadZipf(8, theta),
		})
	}
	for _, shards := range []int{1, 8} {
		out = append(out, Named{
			Name:  fmt.Sprintf("BenchmarkServedMultiPut/shards=%d", shards),
			Bench: ServedMultiPut(shards),
		})
	}
	return out
}
