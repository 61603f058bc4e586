// Benchmarks of the objects and of the composed structures, one family per
// question (the E-numbers are the experiments as cmd/bounds,
// docs/PERFORMANCE.md and the package comments name them). Run with:
//
//	go test -bench=. -benchmem
//
// The served stack is measured by bench/ (BENCHMARK.json), layer by layer;
// a family lives here only when no rung of bench/ladder.go times its body,
// and its doc comment names the question it answers that no rung does.
// Every object runs on a system built the way a served shard is built
// (shardSystem), except the history the checker benchmark must record.
package detectable_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/counter"
	"detectable/internal/explore"
	"detectable/internal/history"
	"detectable/internal/linearize"
	"detectable/internal/maxreg"
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

// shardSystem returns an N-process system under model m, built the way
// shardkv.New builds a shard: its history records nothing, so no log growth
// is billed to the measured operations (the unbounded full log of a bare
// runtime.NewSystem is for verification).
func shardSystem(procs int, m nvm.Model) *runtime.System {
	sys := runtime.NewSystemModel(procs, m)
	sys.SetHistory(history.NewOff())
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
// box with the cores for it). The ladder runs one store geometry.
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

// --- E9: time overhead of detectability ---
//
// The comparison with the sequence-number objects of [3] and [4] and with
// plain cells is recorded in docs/PERFORMANCE.md §"E9"; the families below
// keep the sweeps no rung of bench/ladder.go runs.

// BenchmarkCASDetectable times a solo Algorithm 2 CAS: the KV serves
// Algorithm 1 only, so no rung runs an rcas object.
func BenchmarkCASDetectable(b *testing.B) {
	o := rcas.NewInt(shardSystem(1, nvm.ModelPrivateCache), 0)
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
		o := rcas.NewInt(shardSystem(procs, nvm.ModelPrivateCache), 0)
		eachProc(b, procs, func(pid, n int) {
			for i := 0; i < n; i++ {
				out := o.Read(pid)
				o.Cas(pid, out.Resp, out.Resp+1)
			}
		})
	}
}

// BenchmarkCASDetectableContended sweeps the process count on one object:
// the cost of contention on a single CAS, which no rung provokes.
func BenchmarkCASDetectableContended(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), casContended(procs))
	}
}

// writeDetectable is the solo write body on an N-process register: the
// write cost grows with N, one toggle-bit store per process.
func writeDetectable(procs int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		reg := rw.NewInt(shardSystem(procs, nvm.ModelPrivateCache), 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.Write(0, i)
		}
	}
}

// BenchmarkWriteDetectable sweeps N, the growth of an Algorithm 1 write
// with the process count; the rw.write_ns rung times N = 8 alone.
func BenchmarkWriteDetectable(b *testing.B) {
	for _, procs := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", procs), writeDetectable(procs))
	}
}

// --- E5: max register (no auxiliary state) ---

// BenchmarkMaxRegisterWrite times Algorithm 3's write, an object no rung
// runs.
func BenchmarkMaxRegisterWrite(b *testing.B) {
	sys := shardSystem(4, nvm.ModelPrivateCache)
	m := maxreg.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteMax(0, i)
	}
}

// BenchmarkMaxRegisterRead sweeps N for Algorithm 3's read, a double
// collect of one cell per process.
func BenchmarkMaxRegisterRead(b *testing.B) {
	for _, procs := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", procs), func(b *testing.B) {
			m := maxreg.New(shardSystem(procs, nvm.ModelPrivateCache))
			m.WriteMax(0, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Read(1)
			}
		})
	}
}

// --- Composed structures (E1/E2 applications) ---

// BenchmarkQueueEnqDeq times the detectable queue, whose auxiliary state
// is unbounded by Theorem 2; no rung runs it.
func BenchmarkQueueEnqDeq(b *testing.B) {
	sys := shardSystem(2, nvm.ModelPrivateCache)
	q := queue.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enq(0, i)
		q.Deq(1)
	}
}

// BenchmarkCounterInc times a counter composed from detectable CAS; no rung
// runs a composed object.
func BenchmarkCounterInc(b *testing.B) {
	sys := shardSystem(1, nvm.ModelPrivateCache)
	c := counter.New(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(0)
	}
}

// --- Recovery cost: one planned crash plus the recovery pass ---

// BenchmarkRecoveryCAS times a CAS that crashes and recovers every time;
// every rung is crash-free.
func BenchmarkRecoveryCAS(b *testing.B) {
	sys := shardSystem(1, nvm.ModelPrivateCache)
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

// BenchmarkRecoveryWrite times a register write that crashes and recovers
// every time.
func BenchmarkRecoveryWrite(b *testing.B) {
	sys := shardSystem(1, nvm.ModelPrivateCache)
	reg := rw.NewInt(sys, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Write(0, i, nvm.CrashAtStep(11))
	}
}

// --- E8: shared-cache model overhead (flush-after-write transformation) ---

// BenchmarkSharedCacheOverhead times Section 6's flush-after-write
// transformation against the private-cache model every rung runs.
func BenchmarkSharedCacheOverhead(b *testing.B) {
	models := map[string]nvm.Model{
		"private-cache":      nvm.ModelPrivateCache,
		"shared-cache+flush": nvm.ModelSharedCacheAuto,
	}
	for name, m := range models {
		b.Run(name, func(b *testing.B) {
			sys := shardSystem(1, m)
			o := rcas.NewInt(sys, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Cas(0, i, i+1)
			}
		})
	}
}

// --- E3: Theorem 1 configuration-space exploration ---

// BenchmarkConfigSpace times Theorem 1's configuration count, an explorer
// experiment on rcas with no object to serve.
func BenchmarkConfigSpace(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := explore.ConfigCount(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: exhaustive detectability check (with auxiliary state, clean) ---

// BenchmarkExhaustiveDetectabilityCheck times the explorer exhausting every
// schedule of two processes' Cas(0, 1) on rcas with one crash (with two,
// exhausting takes about 17 s on 2 CPUs).
func BenchmarkExhaustiveDetectabilityCheck(b *testing.B) {
	h, err := explore.ByName("rcas")
	if err != nil {
		b.Fatal(err)
	}
	cas := spec.NewOp(spec.MethodCAS, 0, 1)
	prog := explore.Program{{cas}, {cas}}
	for i := 0; i < b.N; i++ {
		res := explore.Run(h, prog, explore.Options{MaxCrashes: 1, MaxPreemptions: -1})
		if res.Err != nil || res.Counterexample != nil || !res.Exhausted {
			b.Fatalf("err %v, counterexample %v, exhausted %v", res.Err, res.Counterexample, res.Exhausted)
		}
	}
}

// --- E6: doubly-perturbing witness search ---

// BenchmarkPerturbSearch times the search for a doubly-perturbing witness
// (Definition 3, Theorem 2's premise) per object type.
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

// BenchmarkLinearizeCheck times the durable-linearizability checker on a
// fixed 18-operation register history, which only a full log records.
func BenchmarkLinearizeCheck(b *testing.B) {
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
// bodies read 0, 0, 0, 1 and 0 allocs/op at GOMAXPROCS 2 and 8 (the
// contended CAS reads 2 at GOMAXPROCS 1), a truncated mean over racing
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
