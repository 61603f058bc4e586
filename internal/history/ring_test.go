package history

import (
	"sync"
	"testing"

	"detectable/internal/spec"
)

func TestRingModeBasics(t *testing.T) {
	l := NewRing(100)
	if l.mode != ModeRing {
		t.Fatalf("mode = %v, want ring", l.mode)
	}
	if l.Capacity() != 128 {
		t.Fatalf("capacity = %d, want 128 (rounded up to a power of two)", l.Capacity())
	}
	if got := NewRing(1).Capacity(); got != 64 {
		t.Fatalf("minimum capacity = %d, want 64", got)
	}

	l.Invoke(0, spec.NewOp(spec.MethodWrite, 1))
	l.Return(0, 0)
	l.Crash()
	evs := l.Events()
	if len(evs) != 3 || evs[0].Kind != KindInvoke || evs[1].Kind != KindReturn || evs[2].Kind != KindCrash {
		t.Fatalf("events = %v", evs)
	}
	if l.Len() != 3 || l.Appended() != 3 || l.Dropped() != 0 {
		t.Fatalf("len/appended/dropped = %d/%d/%d", l.Len(), l.Appended(), l.Dropped())
	}
}

func TestRingOverwriteKeepsMostRecentInOrder(t *testing.T) {
	l := NewRing(64)
	const total = 300
	for i := 0; i < total; i++ {
		l.Return(0, i)
	}
	evs := l.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d events, want 64", len(evs))
	}
	for i, e := range evs {
		if want := total - 64 + i; e.Resp != want {
			t.Fatalf("event %d: resp = %d, want %d (sequence order)", i, e.Resp, want)
		}
	}
	if l.Appended() != total || l.Dropped() != total-64 {
		t.Fatalf("appended/dropped = %d/%d", l.Appended(), l.Dropped())
	}
}

func TestOffModeDiscards(t *testing.T) {
	l := NewOff()
	l.Invoke(1, spec.NewOp(spec.MethodRead))
	l.Return(1, 7)
	l.Crash()
	l.RecoverReturn(1, 0, true)
	if l.Len() != 0 || l.Events() != nil || l.String() != "" {
		t.Fatalf("off log retained events")
	}
	if l.Appended() != 0 || l.Dropped() != 0 {
		t.Fatalf("appended/dropped = %d/%d, want 0/0: an off log counts nothing", l.Appended(), l.Dropped())
	}
}

func TestFullModeUnchanged(t *testing.T) {
	var l Log // zero value: full mode
	if l.mode != ModeFull || l.Capacity() != 0 {
		t.Fatalf("zero log mode/capacity = %v/%d", l.mode, l.Capacity())
	}
	for i := 0; i < 1000; i++ {
		l.Return(0, i)
	}
	evs := l.Events()
	if len(evs) != 1000 || evs[999].Resp != 999 {
		t.Fatalf("full log retained %d events", len(evs))
	}
	if l.Dropped() != 0 {
		t.Fatalf("full log dropped %d", l.Dropped())
	}
}

// TestRingConcurrentAppendAndSnapshot hammers a small ring from many
// goroutines while snapshots run concurrently; run under -race this is the
// ring's data-race certificate, and the sequence numbers of every snapshot
// must be strictly increasing.
func TestRingConcurrentAppendAndSnapshot(t *testing.T) {
	l := NewRing(64)
	const (
		writers = 8
		each    = 2000
	)
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() { // concurrent snapshotter
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = l.Events()
			_ = l.String()
			_ = l.Len()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Return(w, w*each+i)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-snapDone

	if l.Appended() != writers*each {
		t.Fatalf("appended = %d, want %d", l.Appended(), writers*each)
	}
	evs := l.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	// Per-writer responses must appear in increasing order (sequence
	// numbers reconstruct a valid real-time order).
	last := make(map[int]int)
	for _, e := range evs {
		if prev, ok := last[e.PID]; ok && e.Resp <= prev {
			t.Fatalf("writer %d out of order: %d after %d", e.PID, e.Resp, prev)
		}
		last[e.PID] = e.Resp
	}
}
