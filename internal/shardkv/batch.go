package shardkv

import (
	"sync"
	"sync/atomic"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// KV is one entry of a batched put.
type KV struct {
	Key string
	Val int
}

// ShardPlans routes deterministic crash plans to individual shards of a
// batched call: ShardPlans[i] drives the operations the batch executes on
// shard i, and the other shards run crash-free — the per-shard failure
// isolation the partitioning buys. A nil map (or a missing entry) means no
// planned crash for that shard.
type ShardPlans map[int]nvm.CrashPlan

// BatchScratch is the reusable working storage of one batch caller: the
// counting-sort arrays, the shard groups, the outcome slice, and the
// fan-out coordination state. A caller that owns a scratch and issues its
// batches serially through the *With variants allocates nothing in steady
// state — the server keeps one per session, which is what makes the served
// MultiPut path allocation-free. The zero value is ready to use. A scratch
// must not be shared by concurrent batches.
type BatchScratch struct {
	routed []int // shard of each entry, hashed once
	counts []int
	idxs   []int
	next   []int
	groups []group
	outs   []runtime.Outcome[int]

	// Fan-out state. Workers are launched as bound method goroutines over
	// this struct — no per-batch closure — so the parallel path stays
	// allocation-free too.
	store   *Store
	kind    batchKind
	pid     int
	keys    []string
	entries []KV
	out     []runtime.Outcome[int]
	plan    ShardPlans
	cursor  atomic.Int64
	total   atomic.Int64
	wg      sync.WaitGroup
	workFn  func() // sc.work, bound on first fan-out
}

// minFanOut is the smallest batch that fans out across shards; smaller ones
// run their groups serially on the caller. A put is ~0.65 µs of work
// (bench's shardkv.mput16_ns / 16) while waking a helper and sharing the
// outcome slice's cache lines with it costs 4-20 µs, so on two cores the
// fan-out first beats the serial loop between 128 and 256 entries (serial
// vs fan-out, µs per batch: 16 entries 10 vs 14, 64: 45 vs 65, 128: 100 vs
// 129, 256: 249 vs 199, 512: 356 vs 324). Measured, not configurable.
const minFanOut = 256

// batchKind selects the per-entry operation a batch runs.
type batchKind int

const (
	batchGet batchKind = iota
	batchPut
	batchPutRetry
)

// MultiGet reads every key as process pid and returns the per-key
// detectable outcomes, aligned with keys. The batch is grouped by shard:
// all keys of one shard are served sequentially by one worker, and groups
// of distinct shards run concurrently (bounded by the Parallel option), so
// a batch touching S shards costs roughly the slowest shard's latency
// rather than the sum. A crash plan routed to one shard (or a concurrent
// CrashShard) interrupts only that shard's group.
func (s *Store) MultiGet(pid int, keys []string, plans ...ShardPlans) []runtime.Outcome[int] {
	var sc BatchScratch
	return s.MultiGetWith(&sc, pid, keys, plans...)
}

// MultiGetWith is MultiGet over caller-owned scratch: the returned slice
// aliases sc and stays valid only until sc's next batch.
func (s *Store) MultiGetWith(sc *BatchScratch, pid int, keys []string, plans ...ShardPlans) []runtime.Outcome[int] {
	sc.store, sc.kind, sc.pid, sc.keys = s, batchGet, pid, keys
	sc.routed = resizeInts(sc.routed, len(keys))
	for i, k := range keys {
		sc.routed[i] = s.ShardFor(k)
	}
	return s.runBatch(sc, len(keys), plans)
}

// MultiPut writes every entry as process pid and returns the per-entry
// detectable outcomes, aligned with entries. Grouping, fan-out and crash
// routing follow MultiGet.
func (s *Store) MultiPut(pid int, entries []KV, plans ...ShardPlans) []runtime.Outcome[int] {
	var sc BatchScratch
	return s.MultiPutWith(&sc, pid, entries, plans...)
}

// MultiPutWith is MultiPut over caller-owned scratch: the returned slice
// aliases sc and stays valid only until sc's next batch.
func (s *Store) MultiPutWith(sc *BatchScratch, pid int, entries []KV, plans ...ShardPlans) []runtime.Outcome[int] {
	sc.store, sc.kind, sc.pid, sc.entries = s, batchPut, pid, entries
	sc.routed = resizeInts(sc.routed, len(entries))
	for i := range entries {
		sc.routed[i] = s.ShardFor(entries[i].Key)
	}
	return s.runBatch(sc, len(entries), plans)
}

// MultiPutRetry writes every entry with NRL always-succeeds semantics and
// returns the total number of invocations spent (len(entries) when no
// retry was needed). Shard groups fan out like MultiPut.
func (s *Store) MultiPutRetry(pid int, entries []KV) int {
	var sc BatchScratch
	return s.MultiPutRetryWith(&sc, pid, entries)
}

// MultiPutRetryWith is MultiPutRetry over caller-owned scratch.
func (s *Store) MultiPutRetryWith(sc *BatchScratch, pid int, entries []KV) int {
	sc.store, sc.kind, sc.pid, sc.entries = s, batchPutRetry, pid, entries
	sc.routed = resizeInts(sc.routed, len(entries))
	for i := range entries {
		sc.routed[i] = s.ShardFor(entries[i].Key)
	}
	sc.total.Store(0)
	s.runBatch(sc, len(entries), nil)
	return int(sc.total.Load())
}

// runBatch groups sc.routed, sizes the outcome slice, runs every group
// (sequentially or fanned out), and releases the caller-owned inputs from
// the scratch so they cannot leak past the batch.
func (s *Store) runBatch(sc *BatchScratch, n int, plans []ShardPlans) []runtime.Outcome[int] {
	if len(plans) > 1 {
		panic("shardkv: at most one ShardPlans per batched call")
	}
	if len(plans) == 1 {
		sc.plan = plans[0]
	}
	sc.outs = resizeOutcomes(sc.outs, n)
	sc.out = sc.outs
	groups := s.groupRouted(sc, n)
	workers := s.parallel
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 || n < minFanOut {
		for _, g := range groups {
			sc.run(g)
		}
	} else {
		// The caller is one of the workers: workers-1 wake-ups, and it
		// never sits idle while its helpers are still being scheduled.
		if sc.workFn == nil {
			sc.workFn = sc.work // bound once; `go sc.work()` would box the receiver per launch
		}
		sc.cursor.Store(0)
		sc.wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go sc.workFn()
		}
		sc.drain()
		sc.wg.Wait()
	}
	out := sc.out
	sc.keys, sc.entries, sc.out, sc.plan = nil, nil, nil, nil
	return out
}

// work is one fan-out helper goroutine.
func (sc *BatchScratch) work() {
	defer sc.wg.Done()
	sc.drain()
}

// drain claims groups off the shared cursor until none remain. Within a
// group operations stay sequential, so each shard sees at most one
// in-flight operation per batch — the per-process serialization rule of the
// model, kept per shard system.
func (sc *BatchScratch) drain() {
	for {
		g := int(sc.cursor.Add(1)) - 1
		if g >= len(sc.groups) {
			return
		}
		sc.run(sc.groups[g])
	}
}

// run executes one shard group of the batch.
func (sc *BatchScratch) run(g group) {
	shd := sc.store.shards[g.shard]
	var plan nvm.CrashPlan
	if sc.plan != nil {
		plan = sc.plan[g.shard]
	}
	switch sc.kind {
	case batchGet:
		for _, i := range g.idxs {
			if plan == nil {
				sc.out[i] = shd.get(sc.pid, sc.keys[i])
			} else {
				sc.out[i] = shd.get(sc.pid, sc.keys[i], plan)
			}
		}
	case batchPut:
		for _, i := range g.idxs {
			e := sc.entries[i]
			if plan == nil {
				sc.out[i] = shd.put(sc.pid, e.Key, e.Val)
			} else {
				sc.out[i] = shd.put(sc.pid, e.Key, e.Val, plan)
			}
		}
	case batchPutRetry:
		n := 0
		for _, i := range g.idxs {
			n += shd.putRetry(sc.pid, sc.entries[i].Key, sc.entries[i].Val)
		}
		sc.total.Add(int64(n))
	}
}

// group is one shard's slice of a batch: the indices of the batch entries
// routed to it, in input order.
type group struct {
	shard int
	idxs  []int
}

// groupRouted buckets the first n entries of sc.routed by serving shard
// with a counting sort over flat, reused arrays — no per-shard map or
// slice-append churn, and no allocation once the scratch has warmed up.
func (s *Store) groupRouted(sc *BatchScratch, n int) []group {
	sc.groups = sc.groups[:0]
	if n == 0 {
		return nil
	}
	nShards := len(s.shards)
	sc.counts = resizeInts(sc.counts, nShards)
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	for i := 0; i < n; i++ {
		sc.counts[sc.routed[i]]++
	}
	// Prefix sums turn counts into bucket offsets into one flat index array.
	sc.idxs = resizeInts(sc.idxs, n)
	sc.next = resizeInts(sc.next, nShards)
	sum := 0
	for sh := 0; sh < nShards; sh++ {
		sc.next[sh] = sum
		sum += sc.counts[sh]
	}
	for i := 0; i < n; i++ {
		sh := sc.routed[i]
		sc.idxs[sc.next[sh]] = i
		sc.next[sh]++
	}
	for sh := 0; sh < nShards; sh++ {
		if c := sc.counts[sh]; c > 0 {
			sc.groups = append(sc.groups, group{shard: sh, idxs: sc.idxs[sc.next[sh]-c : sc.next[sh]]})
		}
	}
	return sc.groups
}

// resizeInts returns buf resized to n, reallocating only on growth.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// resizeOutcomes returns buf resized to n, reallocating only on growth.
// Every index is written by exactly one group, so stale contents need no
// zeroing.
func resizeOutcomes(buf []runtime.Outcome[int], n int) []runtime.Outcome[int] {
	if cap(buf) < n {
		return make([]runtime.Outcome[int], n)
	}
	return buf[:n]
}
