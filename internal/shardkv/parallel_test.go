package shardkv

import (
	"fmt"
	"sync"
	"testing"

	"detectable/internal/nvm"
)

// TestParallelMultiPutAlignsWithEntries pins that the fan-out keeps
// outcome alignment: outs[i] is entry i's verdict, regardless of which
// worker served its shard.
func TestParallelMultiPutAlignsWithEntries(t *testing.T) {
	s := New(8, 2)
	s.parallel = 8
	entries := make([]KV, 2*minFanOut)
	for i := range entries {
		entries[i] = KV{Key: fmt.Sprintf("k-%d", i), Val: i * 11}
	}
	outs := s.MultiPut(0, entries)
	if len(outs) != len(entries) {
		t.Fatalf("outs = %d, want %d", len(outs), len(entries))
	}
	for i, out := range outs {
		if !out.Status.Linearized() {
			t.Fatalf("entry %d not linearized: %+v", i, out)
		}
	}
	for i, e := range entries {
		if got := s.Peek(e.Key); got != e.Val {
			t.Fatalf("key %d: peek = %d, want %d", i, got, e.Val)
		}
	}
	gets := s.MultiGet(0, keysOf(entries))
	for i, out := range gets {
		if !out.Status.Linearized() || out.Resp != entries[i].Val {
			t.Fatalf("get %d: %+v, want %d", i, out, entries[i].Val)
		}
	}
}

// TestParallelEqualsSerial pins that the parallel fan-out and the serial
// path compute identical results and stats for the same batch.
func TestParallelEqualsSerial(t *testing.T) {
	entries := make([]KV, 2*minFanOut)
	for i := range entries {
		entries[i] = KV{Key: fmt.Sprintf("k-%d", i%37), Val: i}
	}
	par := New(4, 1)
	par.parallel = 4
	ser := New(4, 1)
	ser.parallel = 1
	po := par.MultiPut(0, entries)
	so := ser.MultiPut(0, entries)
	for i := range entries {
		if po[i].Status != so[i].Status {
			t.Fatalf("entry %d: parallel %v vs serial %v", i, po[i].Status, so[i].Status)
		}
	}
	if pt, st := par.TotalStats(), ser.TotalStats(); pt != st {
		t.Fatalf("stats diverge: parallel %+v serial %+v", pt, st)
	}
}

// TestParallelPlansRouteToShards pins that a ShardPlans map still routes a
// deterministic crash to exactly one shard's group under the fan-out.
func TestParallelPlansRouteToShards(t *testing.T) {
	s := New(4, 2)
	s.parallel = 4
	entries := make([]KV, minFanOut)
	for i := range entries {
		entries[i] = KV{Key: fmt.Sprintf("k-%d", i), Val: i}
	}
	target := s.ShardFor(entries[0].Key)
	outs := s.MultiPut(0, entries, ShardPlans{target: nvm.CrashAtStep(1)})
	sawInterrupted, sawClean := false, false
	for i, out := range outs {
		if s.ShardFor(entries[i].Key) == target {
			if out.Crashes > 0 || !out.Status.Linearized() {
				sawInterrupted = true
			}
		} else if out.Status.Linearized() && out.Crashes == 0 {
			sawClean = true
		}
	}
	if !sawInterrupted {
		t.Fatal("planned crash did not interrupt the target shard's group")
	}
	if !sawClean {
		t.Fatal("other shards did not serve cleanly")
	}
}

// TestRaceParallelBatches hammers parallel batched calls from every
// process while a storm goroutine crashes random shards — the -race
// certificate for the fan-out workers and the atomic stats. Every batch
// must come back fully linearized (MultiPutRetry semantics) and the op
// counters must equal the operations issued.
func TestRaceParallelBatches(t *testing.T) {
	const (
		shards  = 8
		procs   = 4
		rounds  = 10
		perProc = minFanOut // smaller batches run serially on the caller
	)
	s := New(shards, procs)
	s.parallel = shards
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
			entries := make([]KV, perProc)
			keys := make([]string, perProc)
			for r := 0; r < rounds; r++ {
				for i := range entries {
					entries[i] = KV{Key: fmt.Sprintf("p%d-%d", pid, i), Val: r}
					keys[i] = entries[i].Key
				}
				s.MultiPutRetry(pid, entries)
				s.MultiGet(pid, keys)
			}
		}(p)
	}
	workers.Wait()
	close(stop)
	<-stormDone

	// Every put eventually linearized; each process's keys hold its last
	// round value.
	for p := 0; p < procs; p++ {
		for i := 0; i < perProc; i++ {
			if got := s.Peek(fmt.Sprintf("p%d-%d", p, i)); got != rounds-1 {
				t.Fatalf("p%d-%d = %d, want %d", p, i, got, rounds-1)
			}
		}
	}
}

func keysOf(entries []KV) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}
