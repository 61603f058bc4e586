package kv

import (
	"fmt"
	"sync"
	"testing"

	"detectable/internal/history"
	"detectable/internal/runtime"
)

// cellsPerKey is what a register of n processes holds: R, 2N² toggle bits
// and N private toggle indices — 137 at kvserverd's N = 8.
func cellsPerKey(n int) int { return 2*n*n + n + 1 }

// TestConcurrentFirstWritesWhileReading is aimed at the race detector:
// three processes create distinct keys — every creation takes the process
// table's chunk lock and most share a chunk, a bit word and a cell array
// with keys another process is writing — while a fourth reads keys that
// already exist. Every value must land, and the space must count exactly
// the registers handed out however full the last chunk is.
func TestConcurrentFirstWritesWhileReading(t *testing.T) {
	const procs, writers, perWriter, existing = 4, 3, 300, 50
	sys := runtime.NewSystem(procs)
	sys.SetHistory(history.NewOff())
	s := New(sys)
	empty := sys.Space().CellCount()
	old := make([]string, existing)
	for i := range old {
		old[i] = fmt.Sprintf("old-%d", i)
		s.Put(0, old[i], i+1)
	}

	done := make(chan struct{})
	var reader, wg sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			k := i % existing
			if out := s.Get(procs-1, old[k]); out.Resp != k+1 {
				t.Errorf("get %s = %+v, want %d", old[k], out, k+1)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.PutRetry(pid, fmt.Sprintf("new-%d-%d", pid, i), pid*perWriter+i+1)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	reader.Wait()

	for pid := 0; pid < writers; pid++ {
		for i := 0; i < perWriter; i++ {
			if k := fmt.Sprintf("new-%d-%d", pid, i); s.Peek(k) != pid*perWriter+i+1 {
				t.Fatalf("%s = %d, want %d", k, s.Peek(k), pid*perWriter+i+1)
			}
		}
	}
	keys := existing + writers*perWriter
	if got, want := sys.Space().CellCount(), empty+keys*cellsPerKey(procs); got != want {
		t.Fatalf("CellCount = %d for %d keys, want %d", got, keys, want)
	}
}

// TestRestoreThroughChunks: recovery hands registers out of the same chunks
// as first writes. 4096 restored keys read back their recovered values in
// the state a fresh register has — written by process 0 with toggle array
// 0, every toggle bit clear — hold 137 cells each and the bytes per key of
// 4096 first puts: a restore and a first put make the same entry and the
// same register.
func TestRestoreThroughChunks(t *testing.T) {
	const n, keys = 8, 4096
	sys := runtime.NewSystem(n)
	sys.SetHistory(history.NewOff())
	s := New(sys)
	empty := sys.Space().CellCount()
	names := benchKeys(keys)
	for i, k := range names {
		s.Restore(k, i+1)
	}
	if got, want := sys.Space().CellCount(), empty+keys*cellsPerKey(n); got != want {
		t.Fatalf("CellCount = %d after %d restores, want %d", got, keys, want)
	}
	before := sys.Space().Stats().Total()
	for i, k := range names {
		reg, ok := s.lookup(k)
		if !ok {
			t.Fatalf("%s missing after Restore", k)
		}
		if tr := reg.PeekTriple(); tr.Val != i+1 || tr.Q != 0 || tr.Toggle != 0 {
			t.Fatalf("%s restored as %+v, want ⟨%d, 0, 0⟩", k, tr, i+1)
		}
		for p := 0; p < n; p++ {
			if reg.PeekT(p) != 0 {
				t.Fatalf("%s: T_%d set after Restore", k, p)
			}
			for q := 0; q < n; q++ {
				if reg.PeekToggle(q, p, 0) || reg.PeekToggle(q, p, 1) {
					t.Fatalf("%s: A[%d][%d] set after Restore", k, q, p)
				}
			}
		}
		if out := s.Get(i%n, k); out.Resp != i+1 {
			t.Fatalf("get %s = %+v, want %d", k, out, i+1)
		}
	}
	if got := sys.Space().Stats().Total() - before; got != 5*keys {
		t.Fatalf("%d primitives for %d gets of restored keys, want 5 each", got, keys)
	}

	restored, restoredObjs := perKey(n, keys, func(s *Store, i int, key string) { s.Restore(key, i+1) })
	put, putObjs := perKey(n, keys, firstPut)
	t.Logf("restored: %.0f B and %.2f objects per key; first puts: %.0f B and %.2f", restored, restoredObjs, put, putObjs)
	if restored > put+4 || restoredObjs > putObjs+0.05 { // a few KB of runtime noise over 4096 keys
		t.Fatalf("a restored key holds %.0f B in %.2f objects, a first put %.0f B in %.2f", restored, restoredObjs, put, putObjs)
	}
}
