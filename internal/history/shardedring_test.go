package history

import (
	"sync"
	"testing"
)

// TestShardedRingPerWriterOrder pins the ordering contract Events keeps
// under striping: cross-stripe interleaving is by sequence number, but
// every process's own events appear in its append order even when several
// writers share a stripe (writers mod stripes collide).
func TestShardedRingPerWriterOrder(t *testing.T) {
	const (
		stripes = 2
		writers = 5 // writers 0,2,4 share stripe 0; 1,3 share stripe 1
		each    = 40
	)
	l := NewShardedRing(stripes*64, stripes)
	for i := 0; i < each; i++ {
		for w := 0; w < writers; w++ {
			l.Return(w, i)
		}
	}
	perWriter := make(map[int][]int)
	for _, e := range l.Events() {
		perWriter[e.PID] = append(perWriter[e.PID], e.Resp)
	}
	if len(perWriter) != writers {
		t.Fatalf("only %d of %d writers represented", len(perWriter), writers)
	}
	for w, resps := range perWriter {
		for i := 1; i < len(resps); i++ {
			if resps[i] != resps[i-1]+1 {
				t.Fatalf("writer %d: retained resps %v are not in append order", w, resps)
			}
		}
		if last := resps[len(resps)-1]; last != each-1 {
			t.Fatalf("writer %d: tail ends at %d, want %d", w, last, each-1)
		}
	}
}

// TestShardedRingConcurrentWrapReconstruction is the PR 4 concurrent-wrap
// pin over stripes: many writers wrap small sub-rings concurrently; after
// quiescence the snapshot must hold exactly Capacity() events, every
// writer's retained events must be a contiguous tail of its appends, and
// every tail must end in the writer's post-quiescence sentinel.
func TestShardedRingConcurrentWrapReconstruction(t *testing.T) {
	const (
		stripes = 4
		writers = 8
		each    = 5000
	)
	l := NewShardedRing(stripes*64, stripes)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Return(w, i)
			}
		}(w)
	}
	wg.Wait()
	// One sequential sentinel append per writer after quiescence: within
	// each stripe these hold the highest tickets, so every writer is
	// represented and every writer's retained events end in its sentinel.
	for w := 0; w < writers; w++ {
		l.Return(w, each)
	}

	if got := l.Appended(); got != writers*each+writers {
		t.Fatalf("Appended() = %d, want %d", got, writers*each+writers)
	}
	evs := l.Events()
	if len(evs) != l.Capacity() {
		t.Fatalf("retained %d, want %d (no holes after quiescence)", len(evs), l.Capacity())
	}
	perWriter := make(map[int][]int)
	for _, e := range evs {
		perWriter[e.PID] = append(perWriter[e.PID], e.Resp)
	}
	if len(perWriter) != writers {
		t.Fatalf("only %d of %d writers represented in the snapshot", len(perWriter), writers)
	}
	for w, resps := range perWriter {
		for i := 1; i < len(resps); i++ {
			if resps[i] != resps[i-1]+1 {
				t.Fatalf("writer %d: retained resps %v are not a contiguous tail", w, resps)
			}
		}
		if last := resps[len(resps)-1]; last != each {
			t.Fatalf("writer %d: sentinel (resp %d) missing; tail ends at %d", w, each, last)
		}
	}
}
