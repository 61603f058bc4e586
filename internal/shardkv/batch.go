package shardkv

import (
	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

// KV is one entry of a batched put.
type KV struct {
	Key string
	Val int
}

// ShardPlans routes deterministic crash plans to individual shards of a
// batched call: ShardPlans[i] drives the entries the batch executes on
// shard i, and the other shards run crash-free — the per-shard failure
// isolation the partitioning buys. A nil map (or a missing entry) means no
// planned crash for that shard.
type ShardPlans map[int]nvm.CrashPlan

// BatchScratch is the reusable outcome slice of one batch caller. A caller
// that owns a scratch and issues its batches through the *With variants
// allocates nothing in steady state — the server keeps one per session. The
// zero value is ready to use. A scratch must not be shared by concurrent
// batches.
type BatchScratch struct {
	outs []runtime.Outcome[int]
}

// MultiGetWith reads every key as process pid and returns the per-key
// detectable outcomes, aligned with keys, in caller-owned scratch: the
// returned slice aliases sc and stays valid only until sc's next batch. A
// batch is a loop: entry i is one detectable operation on its key's shard,
// run on the caller after entry i−1 returned, as the model's process runs
// its operations one at a time. A crash plan routed to one shard (or a
// concurrent CrashShard) interrupts only that shard's entries.
func (s *Store) MultiGetWith(sc *BatchScratch, pid int, keys []string, plans ...ShardPlans) []runtime.Outcome[int] {
	plan, outs := sc.begin(len(keys), plans)
	for i, k := range keys {
		n := s.ShardFor(k)
		outs[i] = s.shards[n].get(pid, k, plan[n])
	}
	return outs
}

// MultiPut writes every entry as process pid and returns the per-entry
// detectable outcomes, aligned with entries. The puts linearize, and are
// journaled, in entry order; crash routing follows MultiGetWith.
func (s *Store) MultiPut(pid int, entries []KV, plans ...ShardPlans) []runtime.Outcome[int] {
	var sc BatchScratch
	return s.MultiPutWith(&sc, pid, entries, plans...)
}

// MultiPutWith is MultiPut over caller-owned scratch: the returned slice
// aliases sc and stays valid only until sc's next batch.
func (s *Store) MultiPutWith(sc *BatchScratch, pid int, entries []KV, plans ...ShardPlans) []runtime.Outcome[int] {
	plan, outs := sc.begin(len(entries), plans)
	for i, e := range entries {
		n := s.ShardFor(e.Key)
		outs[i] = s.shards[n].put(pid, e.Key, e.Val, i, len(entries), plan[n])
	}
	return outs
}

// begin returns a batched call's optional ShardPlans (nil when absent) and
// sc's outcome slice sized to n, reallocating only on growth: the batch
// writes every index, so stale contents need no zeroing.
func (sc *BatchScratch) begin(n int, plans []ShardPlans) (ShardPlans, []runtime.Outcome[int]) {
	if len(plans) > 1 {
		panic("shardkv: at most one ShardPlans per batched call")
	}
	if cap(sc.outs) < n {
		sc.outs = make([]runtime.Outcome[int], n)
	}
	sc.outs = sc.outs[:n]
	if len(plans) == 0 {
		return nil, sc.outs
	}
	return plans[0], sc.outs
}
