// Benchmarks of the objects and of the composed structures, one family per
// question (the E-numbers are the experiments internal/model/explore.go and
// the cmd/ doc comments name). Run with:
//
//	go test -bench=. -benchmem
//
// The served stack is measured by bench/ (BENCHMARK.json), layer by layer;
// a family lives here only when no rung of bench/ladder.go times its body.
package detectable_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/baseline"
	"detectable/internal/counter"
	"detectable/internal/history"
	"detectable/internal/linearize"
	"detectable/internal/maxreg"
	"detectable/internal/model"
	"detectable/internal/nvm"
	"detectable/internal/perturb"
	"detectable/internal/queue"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/shardkv"
	"detectable/internal/spec"
	"detectable/internal/workload"
)

// ringSystem returns an N-process system with the production history
// configuration (a bounded ring, internal/shardkv's default) rather than
// the unbounded full log verification tests keep, whose growth would be
// billed to the measured operations.
func ringSystem(procs int) *runtime.System {
	sys := runtime.NewSystem(procs)
	sys.SetHistory(history.NewRing(shardkv.DefaultRingCapacity))
	return sys
}

// eachProc runs work(pid, n) on procs goroutines at once, n = b.N/procs + 1
// iterations each, and times the lot.
func eachProc(b *testing.B, procs int, work func(pid, n int)) {
	var wg sync.WaitGroup
	each := b.N/procs + 1
	b.ResetTimer()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			work(pid, each)
		}(p)
	}
	wg.Wait()
}

// benchKeys pre-creates n registers through process 0 and returns their keys.
func benchKeys(s *shardkv.Store, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		s.PutRetry(0, keys[i], 0)
	}
	return keys
}

// --- Sharded KV store: throughput scaling with shard count ---

// shardKVMix is the mixed-workload body: 8 concurrent processes hammer a
// 64-key space spread over shards partitions with a 3:1 put:get mix
// (always-succeeds NRL semantics).
func shardKVMix(shards int) func(b *testing.B) {
	const procs = 8
	return func(b *testing.B) {
		b.ReportAllocs()
		s := shardkv.New(shards, procs)
		keys := benchKeys(s, 64)
		eachProc(b, procs, func(pid, n int) {
			for i := 0; i < n; i++ {
				k := keys[(i*7+pid*13)%len(keys)]
				if i%4 == 0 {
					s.GetRetry(pid, k)
				} else {
					s.PutRetry(pid, k, i)
				}
			}
		})
	}
}

// BenchmarkShardKV sweeps the shard count under a fixed set of concurrent
// processes hammering a shared key space. With one shard all processes
// contend on a single system's space; more shards split the keys across
// independent NVM spaces, so throughput should rise with the count (on a
// box with the cores for it).
func BenchmarkShardKV(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), shardKVMix(shards))
	}
}

// shardKVZipf is the skewed-workload body: 8 concurrent processes draw keys
// from a seeded Zipfian distribution over a 256-key space on 4 shards, with
// a 3:1 get:put mix — the hot-key regime where one shard absorbs most of
// the traffic and the key table's read path dominates.
func shardKVZipf(theta float64) func(b *testing.B) {
	const shards, procs = 4, 8
	return func(b *testing.B) {
		b.ReportAllocs()
		s := shardkv.New(shards, procs)
		keys := benchKeys(s, 256)
		eachProc(b, procs, func(pid, n int) {
			rng := rand.New(rand.NewSource(workload.WorkerSeed(1, procs, pid)))
			z := workload.NewZipf(rng, len(keys), theta)
			for i := 0; i < n; i++ {
				k := keys[z.Next()]
				if i%4 == 0 {
					s.PutRetry(pid, k, i)
				} else {
					s.GetRetry(pid, k)
				}
			}
		})
	}
}

// BenchmarkShardKVZipf sweeps hot-key skew at 8 processes, where
// bench/ladder.go's shardkv.mix_zipf_2p_ns rung runs 2 (the lock-free key
// table's comparison with the seed's RWMutex table is a row of the
// recorded-verdicts table in docs/PERFORMANCE.md).
func BenchmarkShardKVZipf(b *testing.B) {
	for _, theta := range []float64{0.9, 1.2} {
		b.Run(fmt.Sprintf("theta=%g", theta), shardKVZipf(theta))
	}
}

// --- E9: time overhead of detectability (CAS family) ---

func BenchmarkCASDetectable(b *testing.B) {
	sys := runtime.NewSystem(1)
	o := rcas.NewInt(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cas(0, i, i+1)
	}
}

func BenchmarkCASBaselineSeq(b *testing.B) {
	sys := runtime.NewSystem(1)
	o := baseline.NewSeqCAS(sys, 0, runtime.EncodeInt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cas(0, i, i+1)
	}
}

func BenchmarkCASPlain(b *testing.B) {
	sys := runtime.NewSystem(1)
	o := baseline.NewPlainCAS(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Cas(0, i, i+1)
	}
}

// casContended is the contended detectable-CAS body: procs processes
// read-CAS-increment one shared object.
func casContended(procs int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		o := rcas.NewInt(ringSystem(procs), 0)
		eachProc(b, procs, func(pid, n int) {
			for i := 0; i < n; i++ {
				out := o.Read(pid)
				o.Cas(pid, out.Resp, out.Resp+1)
			}
		})
	}
}

// BenchmarkCASDetectableContended sweeps the process count on one object.
func BenchmarkCASDetectableContended(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), casContended(procs))
	}
}

// --- E9: time overhead of detectability (register family) ---

// writeDetectable is the solo write body on an N-process register: the
// write cost grows with N, one toggle-bit store per process.
func writeDetectable(procs int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		reg := rw.NewInt(ringSystem(procs), 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.Write(0, i)
		}
	}
}

func BenchmarkWriteDetectable(b *testing.B) {
	for _, procs := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", procs), writeDetectable(procs))
	}
}

func BenchmarkWriteBaselineSeq(b *testing.B) {
	sys := runtime.NewSystem(8)
	reg := baseline.NewSeqRegister(sys, 0, runtime.EncodeInt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Write(0, i)
	}
}

func BenchmarkWritePlain(b *testing.B) {
	sys := runtime.NewSystem(8)
	reg := baseline.NewPlainRegister(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Write(0, i)
	}
}

func BenchmarkReadDetectable(b *testing.B) {
	sys := runtime.NewSystem(8)
	reg := rw.NewInt(sys, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Read(0)
	}
}

// --- E5: max register (no auxiliary state) ---

func BenchmarkMaxRegisterWrite(b *testing.B) {
	sys := runtime.NewSystem(4)
	m := maxreg.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteMax(0, i)
	}
}

func BenchmarkMaxRegisterRead(b *testing.B) {
	for _, procs := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", procs), func(b *testing.B) {
			sys := runtime.NewSystem(procs)
			m := maxreg.New(sys)
			m.WriteMax(0, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Read(1)
			}
		})
	}
}

// --- Composed structures (E1/E2 applications) ---

func BenchmarkQueueEnqDeq(b *testing.B) {
	sys := runtime.NewSystem(2)
	q := queue.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enq(0, i)
		q.Deq(1)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	sys := runtime.NewSystem(1)
	c := counter.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(0)
	}
}

// --- Recovery cost: one planned crash plus the recovery pass ---

func BenchmarkRecoveryCAS(b *testing.B) {
	sys := runtime.NewSystem(1)
	o := rcas.NewInt(sys, 0)
	cur := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := o.Cas(0, cur, cur+1, nvm.CrashAtStep(8))
		if out.Status.Linearized() && out.Resp {
			cur++
		}
	}
}

func BenchmarkRecoveryWrite(b *testing.B) {
	sys := runtime.NewSystem(1)
	reg := rw.NewInt(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Write(0, i, nvm.CrashAtStep(11))
	}
}

// --- E8: shared-cache model overhead (flush-after-write transformation) ---

func BenchmarkSharedCacheOverhead(b *testing.B) {
	models := map[string]nvm.Model{
		"private-cache":      nvm.ModelPrivateCache,
		"shared-cache+flush": nvm.ModelSharedCacheAuto,
	}
	for name, m := range models {
		b.Run(name, func(b *testing.B) {
			sys := runtime.NewSystemModel(1, m)
			o := rcas.NewInt(sys, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Cas(0, i, i+1)
			}
		})
	}
}

// --- E3: Theorem 1 configuration-space exploration ---

func BenchmarkConfigSpace(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := model.ConfigCount(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: Theorem 2 exhaustive check (with auxiliary state, clean) ---

func BenchmarkExhaustiveDetectabilityCheck(b *testing.B) {
	m := &model.CASMachine{
		N:          2,
		Scripts:    [][]model.OpCAS{{{Old: 0, New: 1}}, {{Old: 0, New: 1}}},
		MaxCrashes: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.CheckCAS(m, 1<<22); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: doubly-perturbing witness search ---

func BenchmarkPerturbSearch(b *testing.B) {
	objs := []spec.Object{spec.Register{}, spec.CAS{}, spec.Queue{}, spec.MaxRegister{}}
	for _, obj := range objs {
		b.Run(obj.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				perturb.FindDoublyPerturbing(obj, 2, 4)
			}
		})
	}
}

// --- Checker cost (infrastructure) ---

func BenchmarkLinearizeCheck(b *testing.B) {
	// A fixed 18-operation concurrent register history.
	sys := runtime.NewSystem(3)
	reg := rw.NewInt(sys, 0)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if i%2 == 0 {
					reg.Write(pid, pid*10+i)
				} else {
					reg.Read(pid)
				}
			}
		}(p)
	}
	wg.Wait()
	recs, _, err := linearize.Collect(sys.Log().Events())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !linearize.Check(spec.Register{}, recs) {
			b.Fatal("history rejected")
		}
	}
}

// --- Allocation churn ceilings on the contended bodies ---

// TestAllocCeilings guards the contended bodies above against per-operation
// allocation churn coming back. The ceilings are loose on purpose — the
// bodies read 0, 0, 0, 1 and 1 allocs/op, a truncated mean over 8 racing
// goroutines — because the exact 0-alloc promises of the served path are
// AllocsPerRun pins beside the code they pin (TestAllocPin* in internal/kv,
// shardkv and server), which a multi-goroutine body cannot be.
func TestAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five benchmarks for a second each; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates on goroutine spawn and hand-off")
	}
	for _, tc := range []struct {
		name    string
		body    func(b *testing.B)
		ceiling int64
	}{
		{"ShardKV/shards=1", shardKVMix(1), 6},
		{"ShardKV/shards=8", shardKVMix(8), 6},
		{"ShardKVZipf/theta=1.2", shardKVZipf(1.2), 1},
		{"CASDetectableContended/procs=8", casContended(8), 8},
		{"WriteDetectable/N=8", writeDetectable(8), 8},
	} {
		if got := testing.Benchmark(tc.body).AllocsPerOp(); got > tc.ceiling {
			t.Errorf("%s: %d allocs/op, ceiling %d", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %d allocs/op (ceiling %d)", tc.name, got, tc.ceiling)
		}
	}
}
