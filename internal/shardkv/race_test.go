package shardkv

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"detectable/internal/nvm"
	"detectable/internal/workload"
)

// TestRaceStress is a short stress run aimed at the race detector:
// concurrent processes mixing single-key and batched operations over a
// shared key space — among them batches that span every shard — a storm
// goroutine crashing random single shards, and a peeker reading stats and
// values: every cross-goroutine surface of the store, racing at once. The
// stats must count exactly the operations issued, a batch's one per entry.
func TestRaceStress(t *testing.T) {
	const (
		procs  = 4
		shards = 4
	)
	s := New(shards, procs)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	spanning := make([]string, shards) // one key on every shard
	for sh := range spanning {
		spanning[sh] = keyOnShard(t, s, sh)
	}
	var issued atomic.Uint64

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // per-shard crash storm
		defer aux.Done()
		rng := rand.New(rand.NewSource(42))
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if i++; i%800 == 0 {
				s.CrashShard(rng.Intn(shards))
			}
		}
	}()
	go func() { // peeker: stats and values racing the operations
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.TotalStats()
			_ = s.Peek(keys[0])
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)))
			span := make([]KV, len(spanning))
			ops := 0
			for i := 0; i < 150; i++ {
				key := keys[rng.Intn(len(keys))]
				var plan nvm.CrashPlan
				if rng.Intn(6) == 0 {
					plan = nvm.CrashAtStep(uint64(1 + rng.Intn(12)))
				}
				switch rng.Intn(6) {
				case 0:
					s.Get(pid, key, plan)
					ops++
				case 1:
					s.Del(pid, key, plan)
					ops++
				case 2:
					ops += len(s.MultiPut(pid, []KV{
						{Key: keys[rng.Intn(len(keys))], Val: i},
						{Key: keys[rng.Intn(len(keys))], Val: i + 1},
					}))
				case 3:
					ops += len(s.MultiGetWith(new(BatchScratch), pid, keys[:4]))
				case 4: // every shard in one batch, each way
					for j, k := range spanning {
						span[j] = KV{Key: k, Val: pid*1000 + i}
					}
					ops += len(s.MultiPut(pid, span))
					ops += len(s.MultiGetWith(new(BatchScratch), pid, spanning))
				default:
					s.Put(pid, key, pid*1000+i, plan)
					ops++
				}
			}
			issued.Add(uint64(ops))
		}(p)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	if got, want := s.TotalStats().Ops(), issued.Load(); got != want {
		t.Fatalf("stats count %d operations, %d were issued", got, want)
	}
}

// TestRaceParallelBatches hammers batched calls across the shards from
// every process while a storm goroutine crashes shards in turn — concurrent
// batches racing each other and the crash storm on each shard. A put entry
// the storm interrupted is re-issued through PutRetry until it linearizes,
// so every process's keys must end on its last round's value.
func TestRaceParallelBatches(t *testing.T) {
	const (
		shards  = 8
		procs   = 4
		rounds  = 10
		perProc = 2 * shards
	)
	s := New(shards, procs)
	stop := make(chan struct{})
	stormDone := make(chan struct{})
	go func() { // crash storm, paced so retries can make progress
		defer close(stormDone)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if i++; i%500 == 0 {
				s.CrashShard((i / 500) % shards)
			}
		}
	}()
	var workers sync.WaitGroup
	for p := 0; p < procs; p++ {
		workers.Add(1)
		go func(pid int) {
			defer workers.Done()
			var sc BatchScratch
			entries := make([]KV, perProc)
			keys := make([]string, perProc)
			for r := 0; r < rounds; r++ {
				for i := range entries {
					entries[i] = KV{Key: fmt.Sprintf("p%d-%d", pid, i), Val: r}
					keys[i] = entries[i].Key
				}
				for i, out := range s.MultiPutWith(&sc, pid, entries) {
					if !out.Status.Linearized() {
						s.PutRetry(pid, entries[i].Key, entries[i].Val)
					}
				}
				s.MultiGetWith(&sc, pid, keys)
			}
		}(p)
	}
	workers.Wait()
	close(stop)
	<-stormDone

	for p := 0; p < procs; p++ {
		for i := 0; i < perProc; i++ {
			if got := s.Peek(fmt.Sprintf("p%d-%d", p, i)); got != rounds-1 {
				t.Fatalf("p%d-%d = %d, want %d", p, i, got, rounds-1)
			}
		}
	}
}

// TestRaceStressHotKey is the skew regime under the race detector: every
// process hammers one shard through a Zipfian chooser whose rank-0 key
// absorbs most of the traffic, mixing PutRetry and Get on the shared hot
// key with a crash storm on that single shard — the copy-on-write key
// table's lock-free read path, the striped stats and the sharded history
// ring all racing on one partition. A concurrent cold-key creator keeps
// table republication racing the hot lookups.
func TestRaceStressHotKey(t *testing.T) {
	const procs = 8
	s := New(1, procs)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("hot-%d", i)
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // crash storm on the single hot shard
		defer aux.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if i++; i%1200 == 0 {
				s.CrashShard(0)
			}
		}
	}()
	go func() { // cold-key creator: COW republication racing hot lookups
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i < 200 {
				s.Put(procs-1, fmt.Sprintf("cold-%d", i), i)
			}
			_ = s.StatsFor(0)
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < procs-1; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			z := workload.NewZipf(rand.New(rand.NewSource(workload.WorkerSeed(9, procs, pid))), len(keys), 1.2)
			for i := 0; i < 200; i++ {
				key := keys[z.Next()]
				if i%3 == 0 {
					s.PutRetry(pid, key, pid*1000+i)
				} else {
					s.Get(pid, key)
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	aux.Wait()
	if got := s.TotalStats().Ops(); got == 0 {
		t.Fatalf("no operations recorded")
	}
}
