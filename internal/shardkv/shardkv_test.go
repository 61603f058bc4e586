package shardkv

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"detectable/internal/history"
	"detectable/internal/linearize"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// keyOnShard returns a key that hashes to the wanted shard.
func keyOnShard(t *testing.T, s *Store, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if s.ShardFor(k) == shard {
			return k
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return ""
}

func TestPutGetDelAcrossShards(t *testing.T) {
	s := New(4, 2)
	for i := 0; i < 4; i++ {
		k := keyOnShard(t, s, i)
		s.Put(0, k, 100+i)
		if out := s.Get(1, k); out.Resp != 100+i {
			t.Fatalf("shard %d: get %s = %d, want %d", i, k, out.Resp, 100+i)
		}
		s.Del(0, k)
		if out := s.Get(1, k); out.Resp != 0 {
			t.Fatalf("shard %d: get %s after del = %d, want 0", i, k, out.Resp)
		}
	}
}

func TestShardForStableAndCovering(t *testing.T) {
	s := New(8, 1)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		sh := s.ShardFor(k)
		if sh < 0 || sh >= 8 {
			t.Fatalf("ShardFor(%s) = %d out of range", k, sh)
		}
		if sh != s.ShardFor(k) {
			t.Fatalf("ShardFor(%s) unstable", k)
		}
		seen[sh] = true
	}
	if len(seen) != 8 {
		t.Fatalf("1000 keys cover only %d/8 shards", len(seen))
	}
}

// TestCrashShardIsolation routes a planned crash into one shard's put and
// checks the other shards' epochs never advance: they keep serving
// crash-free.
func TestCrashShardIsolation(t *testing.T) {
	s := New(4, 2)
	victim := keyOnShard(t, s, 0)
	s.Put(0, victim, 1)

	// Crash before the register's linearization-point store: definite fail.
	out := s.Put(0, victim, 9, nvm.CrashAtStep(10))
	if out.Status != runtime.StatusFailed {
		t.Fatalf("victim put status %v, want failed", out.Status)
	}
	if got := s.Peek(victim); got != 1 {
		t.Fatalf("victim = %d after failed put, want 1", got)
	}

	for i := 1; i < 4; i++ {
		if e := s.System(i).Space().Epoch().Current(); e != 0 {
			t.Fatalf("shard %d epoch = %d, want 0 (crash leaked across shards)", i, e)
		}
		k := keyOnShard(t, s, i)
		if out := s.Put(0, k, i); out.Status != runtime.StatusOK || out.Crashes != 0 {
			t.Fatalf("shard %d put outcome %+v, want clean ok", i, out)
		}
	}
	if e := s.System(0).Space().Epoch().Current(); e == 0 {
		t.Fatal("victim shard epoch did not advance")
	}
}

// TestServedStoreRecordsNothing: a default store's shards log nothing —
// through puts, gets, a batch, a planned crash and an injected one — while
// a FullHistory store records every event kind, and the checker accepts it.
func TestServedStoreRecordsNothing(t *testing.T) {
	s := New(4, 2)
	k := keyOnShard(t, s, 0)
	s.Put(0, k, 1)
	s.Get(1, k)
	s.MultiPut(0, []KV{{Key: k, Val: 2}, {Key: keyOnShard(t, s, 1), Val: 3}})
	s.Put(0, k, 9, nvm.CrashAtStep(10))
	s.CrashShard(2)
	for i := 0; i < s.NumShards(); i++ {
		if l := s.System(i).Log(); l.Len() != 0 || l.Appended() != 0 {
			t.Fatalf("shard %d log holds %d of %d appended events, want none", i, l.Len(), l.Appended())
		}
	}

	full := New(1, 2, FullHistory())
	full.Put(0, "k", 1)
	full.Get(1, "k")
	full.Put(0, "k", 9, nvm.CrashAtStep(10)) // crashes before it lands: a fail verdict
	full.CrashShard(0)
	full.Get(1, "k")
	l := full.System(0).Log()
	seen := map[history.Kind]bool{}
	for _, e := range l.Events() {
		seen[e.Kind] = true
	}
	for _, kind := range []history.Kind{history.KindInvoke, history.KindReturn, history.KindCrash, history.KindRecoverReturn} {
		if !seen[kind] {
			t.Fatalf("FullHistory log has no kind-%d event:\n%s", kind, l)
		}
	}
	if ok, _, err := linearize.CheckLog(spec.Register{}, l); err != nil || !ok {
		t.Fatalf("FullHistory log rejected (ok=%v, err=%v):\n%s", ok, err, l)
	}
}

func TestCrashShardInterruptsOnlyThatShard(t *testing.T) {
	s := New(2, 2)
	k0, k1 := keyOnShard(t, s, 0), keyOnShard(t, s, 1)
	s.CrashShard(0)
	// Shard 0 advanced, shard 1 did not; both still serve new operations.
	if e := s.System(0).Space().Epoch().Current(); e != 1 {
		t.Fatalf("shard 0 epoch = %d, want 1", e)
	}
	if e := s.System(1).Space().Epoch().Current(); e != 0 {
		t.Fatalf("shard 1 epoch = %d, want 0", e)
	}
	if out := s.Put(0, k0, 5); !out.Status.Linearized() {
		t.Fatalf("put on crashed shard after recovery: %+v", out)
	}
	if out := s.Put(0, k1, 6); out.Status != runtime.StatusOK {
		t.Fatalf("put on untouched shard: %+v", out)
	}
}

func TestMultiPutMultiGetAligned(t *testing.T) {
	s := New(4, 2)
	var entries []KV
	var keys []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%d", i)
		entries = append(entries, KV{Key: k, Val: i * 7})
		keys = append(keys, k)
	}
	outs := s.MultiPut(0, entries)
	if len(outs) != len(entries) {
		t.Fatalf("MultiPut returned %d outcomes, want %d", len(outs), len(entries))
	}
	for i, out := range outs {
		if out.Status != runtime.StatusOK {
			t.Fatalf("entry %d outcome %+v", i, out)
		}
	}
	gets := s.MultiGetWith(new(BatchScratch), 1, keys)
	for i, out := range gets {
		if !out.Status.Linearized() || out.Resp != i*7 {
			t.Fatalf("key %d read %+v, want %d", i, out, i*7)
		}
	}
}

// TestMultiPutShardRoutedCrash gives the batch a crash plan for exactly one
// shard: every entry on the other shards must complete crash-free.
func TestMultiPutShardRoutedCrash(t *testing.T) {
	s := New(4, 2)
	var entries []KV
	for i := 0; i < 40; i++ {
		entries = append(entries, KV{Key: fmt.Sprintf("key-%d", i), Val: i})
	}
	outs := s.MultiPut(0, entries, ShardPlans{2: nvm.CrashAtStep(5)})
	sawCrash := false
	for i, out := range outs {
		sh := s.ShardFor(entries[i].Key)
		if sh != 2 {
			if out.Status != runtime.StatusOK || out.Crashes != 0 {
				t.Fatalf("entry %d (shard %d) outcome %+v, want clean ok", i, sh, out)
			}
			continue
		}
		if out.Crashes > 0 {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("planned crash never fired on shard 2")
	}
	for i := 0; i < 4; i++ {
		e := s.System(i).Space().Epoch().Current()
		if i == 2 && e == 0 {
			t.Fatal("shard 2 epoch did not advance")
		}
		if i != 2 && e != 0 {
			t.Fatalf("shard %d epoch = %d, want 0", i, e)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s := New(2, 2)
	k := keyOnShard(t, s, 0)
	s.Put(0, k, 1)
	s.Get(1, k)
	s.Del(0, k)
	s.Put(0, k, 2, nvm.CrashAtStep(11)) // after the store: recovered
	s.Put(0, k, 3, nvm.CrashAtStep(10)) // before the store: failed
	s.CrashShard(0)

	st := s.StatsFor(0)
	if st.Puts != 3 || st.Gets != 1 || st.Dels != 1 {
		t.Fatalf("op counts %+v", st)
	}
	if st.Recovered != 1 || st.Failed != 1 {
		t.Fatalf("verdict counts %+v", st)
	}
	if st.CrashesSeen < 2 || st.CrashesInjected != 1 {
		t.Fatalf("crash counts %+v", st)
	}
	if other := s.StatsFor(1); other.Ops() != 0 {
		t.Fatalf("shard 1 stats %+v, want empty", other)
	}
	if tot := s.TotalStats(); tot.Ops() != st.Ops() {
		t.Fatalf("total %+v vs shard 0 %+v", tot, st)
	}
}

func TestRetryCountsAsOneOp(t *testing.T) {
	s := New(1, 1)
	s.PutRetry(0, "a", 1)
	s.PutRetry(0, "a", 0)
	if v := s.GetRetry(0, "a"); v != 0 {
		t.Fatalf("GetRetry = %d, want 0", v)
	}
	st := s.StatsFor(0)
	if st.Puts != 2 || st.Dels != 0 || st.Gets != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDetectabilityUnderShardCrashStorm is the core contract test: procs
// own disjoint key sets, a storm goroutine crashes random single shards,
// and every put resolves to a definite verdict the owner uses to track the
// expected value. Any lost or duplicated effect is a detectability
// violation and fails the test.
func TestDetectabilityUnderShardCrashStorm(t *testing.T) {
	const (
		procs       = 3
		keysPerProc = 4
		opsPerKey   = 15
		shards      = 4
		stormPeriod = 400
	)
	s := New(shards, procs)

	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		srng := rand.New(rand.NewSource(99))
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			if i%stormPeriod == 0 {
				s.CrashShard(srng.Intn(shards))
			}
		}
	}()

	expected := make([]map[string]int, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			exp := make(map[string]int)
			prng := rand.New(rand.NewSource(int64(pid)))
			for k := 0; k < keysPerProc; k++ {
				key := fmt.Sprintf("p%d-k%d", pid, k)
				for i := 1; i <= opsPerKey; i++ {
					val := pid*1000 + k*100 + i
					out := s.Put(pid, key, val)
					switch out.Status {
					case runtime.StatusOK, runtime.StatusRecovered:
						exp[key] = val
					case runtime.StatusFailed, runtime.StatusNotInvoked:
						// Definitely not linearized: expected unchanged.
					default:
						t.Errorf("indefinite outcome %+v", out)
					}
					if prng.Intn(4) == 0 {
						got := s.GetRetry(pid, key)
						if got != exp[key] {
							t.Errorf("pid %d key %s: read %d, expected %d", pid, key, got, exp[key])
						}
					}
				}
			}
			expected[pid] = exp
		}(p)
	}
	wg.Wait()
	close(stop)
	storm.Wait()

	for p := 0; p < procs; p++ {
		for key, want := range expected[p] {
			if got := s.Peek(key); got != want {
				t.Fatalf("pid %d key %s: final %d, want %d (lost or duplicated effect)", p, key, got, want)
			}
		}
	}
}
