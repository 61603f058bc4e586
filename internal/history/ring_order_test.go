package history

import (
	"sync"
	"testing"

	"detectable/internal/spec"
)

// TestRingWrapBoundaries pins Events ordering at the exact wraparound
// boundaries: capacity-1, capacity, capacity+1 and a multiple of capacity
// plus one. At every boundary the snapshot must be precisely the most
// recent min(appended, cap) events in append order.
func TestRingWrapBoundaries(t *testing.T) {
	const cap = 64
	l := NewRing(cap)
	check := func(appended int) {
		t.Helper()
		evs := l.Events()
		want := appended
		if want > cap {
			want = cap
		}
		if len(evs) != want {
			t.Fatalf("after %d appends: retained %d, want %d", appended, len(evs), want)
		}
		for i, e := range evs {
			if wantResp := appended - want + i; e.Resp != wantResp {
				t.Fatalf("after %d appends: event %d has resp %d, want %d", appended, i, e.Resp, wantResp)
			}
		}
		if int(l.Appended()) != appended {
			t.Fatalf("Appended() = %d, want %d", l.Appended(), appended)
		}
		wantDropped := appended - want
		if int(l.Dropped()) != wantDropped {
			t.Fatalf("Dropped() = %d, want %d", l.Dropped(), wantDropped)
		}
	}
	boundaries := map[int]bool{cap - 1: true, cap: true, cap + 1: true, 3 * cap: true, 3*cap + 1: true}
	for n := 1; n <= 3*cap+1; n++ {
		l.Return(0, n-1)
		if boundaries[n] {
			check(n)
		}
	}
}

// TestRingWrapKindFidelity: wrapping must not corrupt event payloads — a
// mixed-kind stream read back across a wrap keeps every field intact.
func TestRingWrapKindFidelity(t *testing.T) {
	l := NewRing(64)
	const rounds = 50 // 200 events through a 64-slot ring
	for i := 0; i < rounds; i++ {
		l.Invoke(i%3, spec.NewOp(spec.MethodWrite, i))
		l.Return(i%3, i)
		l.Crash()
		l.RecoverReturn(i%3, i, i%2 == 0)
	}
	evs := l.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	// The stream's period is 4; the ring size is a multiple of 4, so the
	// snapshot starts at a known phase. Verify each event against the
	// generator at its reconstructed global position.
	total := rounds * 4
	for i, e := range evs {
		pos := total - 64 + i
		round, phase := pos/4, pos%4
		switch phase {
		case 0:
			if e.Kind != KindInvoke || e.PID != round%3 || e.Op.Args[0] != round {
				t.Fatalf("event %d (pos %d): bad invoke %+v", i, pos, e)
			}
		case 1:
			if e.Kind != KindReturn || e.PID != round%3 || e.Resp != round {
				t.Fatalf("event %d (pos %d): bad return %+v", i, pos, e)
			}
		case 2:
			if e.Kind != KindCrash {
				t.Fatalf("event %d (pos %d): bad crash %+v", i, pos, e)
			}
		case 3:
			if e.Kind != KindRecoverReturn || e.Fail != (round%2 == 0) {
				t.Fatalf("event %d (pos %d): bad recover %+v", i, pos, e)
			}
		}
	}
}

// TestRingConcurrentWrapReconstruction is the sequence-number
// reconstruction pin under contention: many writers wrap a small ring
// concurrently; afterwards the snapshot must hold exactly capacity events,
// and for every writer the retained events must be a contiguous tail of
// that writer's appends, ending in the writer's final append. Both follow
// from reconstruction by global ticket order — per-writer tickets increase,
// so the ring window (the last `capacity` tickets) intersects each writer's
// sequence in a suffix — and both fail if slots are ordered by position
// instead of sequence number.
func TestRingConcurrentWrapReconstruction(t *testing.T) {
	const (
		capacity = 64
		writers  = 8
		each     = 5000
	)
	l := NewRing(capacity)
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
	// One sequential sentinel append per writer after quiescence: these
	// hold the highest `writers` tickets, so every writer is represented
	// and every writer's retained events must end in its sentinel.
	for w := 0; w < writers; w++ {
		l.Return(w, each)
	}

	if got := l.Appended(); got != writers*each+writers {
		t.Fatalf("Appended() = %d, want %d", got, writers*each+writers)
	}
	evs := l.Events()
	if len(evs) != capacity {
		t.Fatalf("retained %d, want %d (no holes after quiescence)", len(evs), capacity)
	}
	perWriter := make(map[int][]int)
	for _, e := range evs {
		perWriter[e.PID] = append(perWriter[e.PID], e.Resp)
	}
	if len(perWriter) != writers {
		t.Fatalf("only %d of %d writers represented in the snapshot", len(perWriter), writers)
	}
	for w, resps := range perWriter {
		// The ring window is a suffix of the global ticket order and each
		// writer's tickets increase, so the writer's retained events are a
		// contiguous tail of its appends, ending in its sentinel.
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
