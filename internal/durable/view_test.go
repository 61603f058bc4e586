package durable_test

// The replica's applied read view (view.go): whole barriers become visible
// atomically, the applied sequence is monotone under concurrent readers,
// and the final view converges to the primary's committed values.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"detectable/internal/shardkv"
	"detectable/internal/simio"
)

// TestViewBarrierAtomicityAndSeqMonotonic streams a primary workload into
// a replica while concurrent readers hammer the view. Every barrier writes
// the same value i to key "a" then key "b", so any reader that observes
// b < a caught a half-applied barrier — the staging discipline's exact
// failure mode (eager per-record application). The applied mark must never
// move backwards, and after the stream drains the view must hold the last
// committed values at the final barrier sequence.
func TestViewBarrierAtomicityAndSeqMonotonic(t *testing.T) {
	const rounds = 300
	pdb := openSim(t, simio.New())
	sub := pdb.Subscribe(0)
	if err := pdb.AppendHello(1, 0); err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	shardA := shardkv.ShardIndex("a", testShards)
	shardB := shardkv.ShardIndex("b", testShards)
	for i := 1; i <= rounds; i++ {
		pdb.ShardBacking(shardA).Persist("a", int64(i))
		pdb.ShardBacking(shardB).Persist("b", int64(i))
		if err := pdb.CommitOutcome(1, uint64(i), []byte{1}); err != nil {
			t.Fatalf("CommitOutcome %d: %v", i, err)
		}
	}
	sub.Close()
	msgs := drain(t, sub)
	wantSeq, _, _ := pdb.ReplStatus()

	rdb := openSim(t, simio.New())
	rp := rdb.NewReplica()

	var stop atomic.Bool
	violation := make(chan string, 4)
	const readers = 3
	done := make(chan struct{}, readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var lastSeq uint64
			for !stop.Load() {
				va, _ := rdb.ViewGet(shardA, "a")
				vb, _ := rdb.ViewGet(shardB, "b")
				if vb < va {
					select {
					case violation <- fmt.Sprintf("half-applied barrier: a=%d b=%d", va, vb):
					default:
					}
					return
				}
				seq := rdb.ViewSeq()
				if seq < lastSeq {
					select {
					case violation <- fmt.Sprintf("applied seq moved backwards: %d after %d", seq, lastSeq):
					default:
					}
					return
				}
				lastSeq = seq
			}
		}()
	}
	for i, m := range msgs {
		if _, _, err := rp.Apply(m); err != nil {
			stop.Store(true)
			t.Fatalf("Apply msg %d: %v", i, err)
		}
	}
	stop.Store(true)
	for r := 0; r < readers; r++ {
		<-done
	}
	select {
	case v := <-violation:
		t.Fatal(v)
	default:
	}

	if got := rdb.ViewSeq(); got != wantSeq {
		t.Fatalf("final applied seq %d, want the primary's committed %d", got, wantSeq)
	}
	if va, ok := rdb.ViewGet(shardA, "a"); !ok || va != rounds {
		t.Fatalf("final view a=%d (ok=%v), want %d", va, ok, rounds)
	}
	if vb, ok := rdb.ViewGet(shardB, "b"); !ok || vb != rounds {
		t.Fatalf("final view b=%d (ok=%v), want %d", vb, ok, rounds)
	}
}

// TestViewResetOnSnapshot: a replica that reconnects receives a fresh
// bootstrap; SnapBegin must drop the stale view and zero the applied mark
// (readers fall back to the primary during the resync window) before the
// rebuilt view is republished at the bootstrap's commit mark.
func TestViewResetOnSnapshot(t *testing.T) {
	pdb := openSim(t, simio.New())
	sub := pdb.Subscribe(0)
	if err := pdb.AppendHello(1, 0); err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	shard := shardkv.ShardIndex("k", testShards)
	pdb.ShardBacking(shard).Persist("k", 7)
	if err := pdb.CommitOutcome(1, 1, []byte{1}); err != nil {
		t.Fatalf("CommitOutcome: %v", err)
	}
	sub.Close()
	msgs := drain(t, sub)

	rdb := openSim(t, simio.New())
	applyAll(t, rdb.NewReplica(), msgs)
	if v, ok := rdb.ViewGet(shard, "k"); !ok || v != 7 {
		t.Fatalf("view k=%d (ok=%v) after first sync, want 7", v, ok)
	}
	seq1 := rdb.ViewSeq()
	if seq1 == 0 {
		t.Fatal("applied mark still zero after first sync")
	}

	// Reconnect: a second full stream from a fresh subscription (bootstrap
	// included). Mid-bootstrap the view must read empty at mark zero.
	sub2 := pdb.Subscribe(0)
	sub2.Close()
	msgs2 := drain(t, sub2)
	rp := rdb.NewReplica()
	if _, _, err := rp.Apply(msgs2[0]); err != nil { // SnapBegin
		t.Fatalf("Apply SnapBegin: %v", err)
	}
	if got := rdb.ViewSeq(); got != 0 {
		t.Fatalf("applied mark %d mid-bootstrap, want 0 (stale view must not serve)", got)
	}
	if _, ok := rdb.ViewGet(shard, "k"); ok {
		t.Fatal("stale view still serving mid-bootstrap")
	}
	applyAll(t, rp, msgs2[1:])
	if v, ok := rdb.ViewGet(shard, "k"); !ok || v != 7 {
		t.Fatalf("view k=%d (ok=%v) after resync, want 7", v, ok)
	}
	if got := rdb.ViewSeq(); got == 0 {
		t.Fatal("applied mark not republished after resync")
	}
}

// TestLeadViewPublishesBeforeSyncReturns: a DB that leads publishes what
// recovery found at Lead, and each epoch's puts before the commit that rode
// it returns, in log order, while writers commit concurrently, compactions
// fold staged puts and a tap subscribes mid-run. Each writer owns a key and
// writes 1, 2, …: after its Sync returns the view holds its last value, and
// no reader ever sees a key's value go down.
func TestLeadViewPublishesBeforeSyncReturns(t *testing.T) {
	const writers, rounds = 3, 200
	pdb := openSim(t, simio.New())
	defer pdb.Close()
	pdb.SetCompactThreshold(4 << 10)
	shardOf := func(key string) int { return shardkv.ShardIndex(key, testShards) }
	pdb.ShardBacking(shardOf("pre")).Persist("pre", 5)
	if err := pdb.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := pdb.ViewGet(shardOf("pre"), "pre"); ok {
		t.Fatal("a DB that does not lead publishes its own puts")
	}
	pdb.Lead()
	if v, ok := pdb.ViewGet(shardOf("pre"), "pre"); !ok || v != 5 {
		t.Fatalf("after Lead, view pre = %d (present %v), want 5", v, ok)
	}

	var stop atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make([]int64, writers)
			for !stop.Load() {
				for w := range writers {
					key := fmt.Sprintf("w%d", w)
					if v, _ := pdb.ViewGet(shardOf(key), key); v < last[w] {
						t.Errorf("view %s went from %d down to %d", key, last[w], v)
						return
					} else {
						last[w] = v
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for j := int64(1); j <= rounds; j++ {
				pdb.ShardBacking(shardOf(key)).Persist(key, j)
				if err := pdb.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
				if v, _ := pdb.ViewGet(shardOf(key), key); v != j {
					t.Errorf("after the Sync of %s = %d returned, the view reads %d", key, j, v)
					return
				}
				if w == 0 && j == rounds/2 {
					pdb.Subscribe(0).Close()
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
}
