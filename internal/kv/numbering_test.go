package kv

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"detectable/internal/history"
	"detectable/internal/runtime"
	"detectable/internal/rw"
)

// checkNumbering checks the invariant lookup relies on: the key table's
// entry n and the process table's register n−1 were made together. Every
// entry's name resolves to its own number and to register n−1, no two keys
// share a register, and the process table has handed out no register
// beyond the table's entries. With want non-nil, the keys are exactly
// want's and every register holds want's value for its key.
func checkNumbering(t *testing.T, s *Store, want map[string]int) {
	t.Helper()
	keys := s.tbl.Len()
	seen := make(map[rw.Register]string, keys)
	for n := uint32(1); n <= uint32(keys); n++ {
		key := s.tbl.Name(n)
		reg := s.procs.At(int(n) - 1)
		if m, _ := s.tbl.Lookup(key); m != n {
			t.Fatalf("entry %d is named %q, which resolves to entry %d", n, key, m)
		}
		if got, ok := s.lookup(key); !ok || got != reg {
			t.Fatalf("%q, entry %d, does not resolve to register %d", key, n, n-1)
		}
		if other, dup := seen[reg]; dup {
			t.Fatalf("%q and %q share a register", other, key)
		}
		seen[reg] = key
		if v, ok := want[key]; want != nil && (!ok || reg.PeekTriple().Val != v) {
			t.Fatalf("%q holds %d; want %d (present %v)", key, reg.PeekTriple().Val, v, ok)
		}
	}
	if want != nil && len(want) != keys {
		t.Fatalf("the table holds %d keys, want %d", keys, len(want))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("the process table hands out register %d beside %d keys", keys, keys)
		}
	}()
	s.procs.At(keys)
}

// TestKeyNumberIsRegisterNumber: on a store built by Restore, eight
// processes make first writes to overlapping windows of keys at once — the
// creation mutex orders them — and the numbering holds; then each key's
// owner writes it once more and every register holds that last write.
func TestKeyNumberIsRegisterNumber(t *testing.T) {
	const procs, keys, restored, window = 8, 400, 100, 150
	sys := runtime.NewSystem(procs)
	sys.SetHistory(history.NewOff())
	s := New(sys)
	name := func(k int) string { return fmt.Sprintf("key-%d", k) }
	for k := 0; k < restored; k++ {
		s.Restore(name(2*k), -k) // every other key of the first 200
	}
	checkNumbering(t, s, nil)

	var wg sync.WaitGroup
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for j := 0; j < window; j++ { // keys 25·pid … 25·pid+149
				k := pid*25 + j
				s.PutRetry(pid, name(k), pid*keys+k)
			}
		}(pid)
	}
	wg.Wait()
	checkNumbering(t, s, nil)

	last := make(map[string]int, keys)
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for k := pid; k < keys; k += procs {
				s.PutRetry(pid, name(k), 10*keys+k)
			}
		}(pid)
		for k := pid; k < keys; k += procs {
			last[name(k)] = 10*keys + k
		}
	}
	wg.Wait()
	checkNumbering(t, s, last)
}

// FuzzStoreAgainstMap drives a store and a map with one stream of
// operations decoded from the input — Put, Restore of a key the store does
// not have yet, Get (which creates a missing key, at 0), Peek (which does
// not) and Keys, on keys of zero to three bytes cut from the input — and
// requires them to agree, and the key numbering to hold, after every step.
func FuzzStoreAgainstMap(f *testing.F) {
	f.Add([]byte("\x00\x01a\x05\x02\x01a\x03\x01a\x04\x00\x00"))
	f.Add([]byte("\x01\x02ab\x07\x01\x02ab\x09\x00\x02ab\xfe\x03\x02ab\x04\x00"))
	f.Add([]byte("\x03\x01z\x02\x01z\x01\x01z\x05\x04\x00"))
	f.Add([]byte("\x00\x03abc\x01\x00\x03abd\x02\x01\x02ab\x03\x02\x01a\x04\x00\x02\x00"))
	f.Fuzz(func(t *testing.T, in []byte) {
		sys := runtime.NewSystem(2)
		sys.SetHistory(history.NewOff())
		s := New(sys)
		ref := make(map[string]int)
		for len(in) >= 2 {
			op, size := in[0]%5, min(int(in[1]%4), len(in)-2)
			key := string(in[2 : 2+size])
			in = in[2+size:]
			switch op {
			case 0, 1: // Put, Restore: a value byte follows
				if len(in) == 0 {
					return
				}
				val := int(int8(in[0]))
				in = in[1:]
				if _, present := ref[key]; op == 1 && present {
					continue // recovery restores a key before its first use only
				}
				if op == 0 {
					if out := s.Put(0, key, val); out.Status != runtime.StatusOK {
						t.Fatalf("put %q = %+v", key, out)
					}
				} else {
					s.Restore(key, val)
				}
				ref[key] = val
			case 2:
				if got := s.Get(1, key).Resp; got != ref[key] {
					t.Fatalf("get %q = %d, want %d", key, got, ref[key])
				}
				if _, present := ref[key]; !present {
					ref[key] = 0
				}
			case 3:
				if got := s.Peek(key); got != ref[key] {
					t.Fatalf("peek %q = %d, want %d", key, got, ref[key])
				}
			case 4:
				want := make([]string, 0, len(ref))
				for k := range ref {
					want = append(want, k)
				}
				slices.Sort(want)
				if got := s.Keys(); !slices.Equal(got, want) {
					t.Fatalf("Keys = %q, want %q", got, want)
				}
			}
			checkNumbering(t, s, ref)
		}
	})
}
