package kv

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"detectable/internal/runtime"
)

// TestCowCreateRace: concurrent first-writers of the same key must resolve
// to exactly one register (the creation mutex double-checks), and
// concurrent creators of distinct keys must all be retained across the key
// table's copy-on-write republications (index, chunk directory, name
// blocks: internal/keytab).
func TestCowCreateRace(t *testing.T) {
	const procs = 8
	sys := runtime.NewSystem(procs)
	s := New(sys)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.PutRetry(pid, "shared", pid*1000+i)
				s.PutRetry(pid, fmt.Sprintf("own-%d-%d", pid, i), i)
			}
		}(p)
	}
	wg.Wait()
	if got := len(s.Keys()); got != 1+procs*50 {
		t.Fatalf("retained %d keys, want %d", got, 1+procs*50)
	}
	r1, ok1 := s.lookup("shared")
	r2, ok2 := s.lookup("shared")
	if !ok1 || !ok2 || r1 != r2 {
		t.Fatalf("shared key resolved to distinct registers")
	}
	for p := 0; p < procs; p++ {
		if got := s.Peek(fmt.Sprintf("own-%d-49", p)); got != 49 {
			t.Fatalf("own-%d-49 = %d, want 49", p, got)
		}
	}
}

// TestLockedStoreEquivalence pins the store's observable behavior over the
// copy-on-write table (the name and the one-row table are what is left of
// the comparison with the retired RWMutex baseline, whose numbers are in
// docs/PERFORMANCE.md §"Recorded verdicts").
func TestLockedStoreEquivalence(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func(*runtime.System) *Store
	}{{"cow", New}} {
		t.Run(mk.name, func(t *testing.T) {
			sys := runtime.NewSystem(2)
			s := mk.new(sys)
			s.Put(0, "b", 1)
			s.Put(0, "a", 2)
			s.Get(0, "c")
			if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
				t.Fatalf("Keys = %v", got)
			}
			if got := s.Peek("a"); got != 2 {
				t.Fatalf("a = %d, want 2", got)
			}
			s.Del(1, "a")
			if got := s.Peek("a"); got != 0 {
				t.Fatalf("a = %d after del, want 0", got)
			}
			if out := s.Get(1, "missing"); out.Resp != 0 {
				t.Fatalf("missing = %d, want 0", out.Resp)
			}
		})
	}
}

// TestRestorePanicsOnExistingKey pins the recovery contract: Restore must
// refuse a key that already has a register.
func TestRestorePanicsOnExistingKey(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func(*runtime.System) *Store
	}{{"cow", New}} {
		t.Run(mk.name, func(t *testing.T) {
			sys := runtime.NewSystem(1)
			s := mk.new(sys)
			s.Restore("k", 7)
			if got := s.Peek("k"); got != 7 {
				t.Fatalf("restored k = %d, want 7", got)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("second Restore of k did not panic")
				}
			}()
			s.Restore("k", 8)
		})
	}
}

// TestAllocPinLookup: resolving an existing key is a hash and a short probe
// of the key table — zero allocations. This is the kv-layer half of the
// crash-free Get pin (shardkv.TestAllocPinCrashFreeGet is the other).
func TestAllocPinLookup(t *testing.T) {
	sys := runtime.NewSystem(1)
	s := New(sys)
	s.Put(0, "hot", 1)
	if allocs := testing.AllocsPerRun(500, func() {
		if _, ok := s.lookup("hot"); !ok {
			t.Fatal("hot key missing")
		}
	}); allocs != 0 {
		t.Fatalf("lookup allocates %v/op, want 0", allocs)
	}
}
