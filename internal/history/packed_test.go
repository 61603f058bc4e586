package history

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"detectable/internal/spec"
)

// TestAllocPinColdRingAppend pins that a ring on its first lap appends
// without allocating: a slot owns no heap to set up. (AllocsPerRun's own
// warm-up call interns the two method names.)
func TestAllocPinColdRingAppend(t *testing.T) {
	l := NewShardedRing(4096, 4)
	args := []int{1, 2}
	allocs := testing.AllocsPerRun(200, func() {
		l.Invoke(3, spec.Operation{Method: spec.MethodCAS, Args: args})
		l.Return(3, spec.True)
		l.Invoke(2, spec.Operation{Method: spec.MethodRead})
		l.RecoverReturn(2, 0, true)
	})
	if allocs != 0 {
		t.Fatalf("cold ring append allocated %.1f times per run, want 0", allocs)
	}
	if l.Dropped() != 0 {
		t.Fatalf("ring wrapped (%d dropped): the pin must measure the first lap", l.Dropped())
	}
}

// randomStream appends n random events — all four kinds, 0/1/2 arguments,
// extreme and negative words, pids 0…63, fail set and clear, ad-hoc method
// names beside the spec's — to every log, identically.
func randomStream(rng *rand.Rand, n int, logs ...*Log) {
	words := []int{0, 1, -1, 7, -40, math.MaxInt, math.MinInt, math.MaxInt32, math.MinInt32}
	methods := []string{spec.MethodRead, spec.MethodWrite, spec.MethodCAS, spec.MethodSwap, "", "ad-hoc"}
	word := func() int {
		if rng.Intn(3) == 0 {
			return rng.Int() - rng.Int()
		}
		return words[rng.Intn(len(words))]
	}
	for i := 0; i < n; i++ {
		pid := rng.Intn(64)
		switch k := rng.Intn(10); {
		case k < 4:
			method := methods[rng.Intn(len(methods))]
			if rng.Intn(8) == 0 {
				method = fmt.Sprintf("m%d", rng.Intn(40))
			}
			var args []int
			for a := rng.Intn(maxRingArgs + 1); a > 0; a-- {
				args = append(args, word())
			}
			for _, l := range logs {
				l.Invoke(pid, spec.Operation{Method: method, Args: args})
			}
			// Recorders copy: scribbling on the caller's slice must not show.
			for j := range args {
				args[j] = -99
			}
		case k < 7:
			resp := word()
			for _, l := range logs {
				l.Return(pid, resp)
			}
		case k < 9:
			resp, fail := word(), rng.Intn(2) == 0
			for _, l := range logs {
				l.RecoverReturn(pid, resp, fail)
			}
		default:
			for _, l := range logs {
				l.Crash()
			}
		}
	}
}

// TestPackedRingMatchesFullLog is the ring record's round-trip property: a
// ring that holds a whole random stream reports exactly the events a
// ModeFull log does, and past wrap-around exactly its tail — in the exact
// append order across writers, however many stripes NewShardedRing is
// asked for.
func TestPackedRingMatchesFullLog(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		capacity, n, stripes int
	}{
		{"fits", 4096, 3000, 1},
		{"wrapped", 256, 3000, 1},
		{"sharded", 256, 3000, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, ring := new(Log), NewShardedRing(tc.capacity, tc.stripes)
			randomStream(rand.New(rand.NewSource(16)), tc.n, full, ring)
			want := full.Events()
			if len(want) > tc.capacity {
				want = want[len(want)-tc.capacity:]
			}
			got := ring.Events()
			if len(got) != len(want) {
				t.Fatalf("ring retained %d events, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("event %d: ring %#v, full %#v", i, got[i], want[i])
				}
			}
			if ring.Appended() != uint64(tc.n) || ring.Dropped() != uint64(tc.n-len(want)) {
				t.Fatalf("appended/dropped = %d/%d, want %d/%d", ring.Appended(), ring.Dropped(), tc.n, tc.n-len(want))
			}
		})
	}
}

// TestRingRejectsThreeArguments: the packed record has two payload words,
// so a ring panics, naming the method, on a wider Invoke; ModeFull, the
// verification mode, keeps any arity.
func TestRingRejectsThreeArguments(t *testing.T) {
	op := spec.NewOp("wide", 1, 2, 3)
	full := new(Log)
	full.Invoke(0, op)
	if got := full.Events()[0].Op; !reflect.DeepEqual(got, op) {
		t.Fatalf("full log stored %v, want %v", got, op)
	}

	ring := NewRing(64)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "wide") || !strings.Contains(msg, "3") {
			t.Fatalf("panic = %q, want one naming method wide and its 3 arguments", msg)
		}
		if ring.Appended() != 0 {
			t.Fatalf("rejected invoke took a ticket")
		}
	}()
	ring.Invoke(0, op)
	t.Fatal("ring accepted a 3-argument invoke")
}

// TestRingConcurrentInterning races appends whose method names are new to
// the log against each other and against snapshots (run under -race): every
// Invoke a snapshot returns carries the method its writer recorded with
// those arguments.
func TestRingConcurrentInterning(t *testing.T) {
	const writers, perWriter, names = 4, 2000, 24
	l := NewShardedRing(1024, 4)
	method := func(pid, i int) string { return fmt.Sprintf("w%d-%d", pid, i%names) }

	check := func() {
		for _, e := range l.Events() {
			if e.Kind != KindInvoke {
				continue
			}
			if len(e.Op.Args) != 2 || e.Op.Args[0] != e.PID || e.Op.Method != method(e.PID, e.Op.Args[1]) {
				t.Errorf("snapshot returned %v", e)
				return
			}
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for pid := 0; pid < writers; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			args := make([]int, 2)
			for i := 0; i < perWriter; i++ {
				args[0], args[1] = pid, i
				l.Invoke(pid, spec.Operation{Method: method(pid, i), Args: args})
				l.Return(pid, i)
			}
		}(pid)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
				check()
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	check()
}
