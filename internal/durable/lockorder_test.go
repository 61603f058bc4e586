package durable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"detectable/internal/runtime"
)

// TestLockAllBesideFoldingAnchors: lockAll's callers — Compact, Subscribe,
// StateHash, Lead — run in a loop beside writers that journal stamped puts
// on every shard and sync them, on a primary that leads. An anchor folds its
// batch holding sessions.mu and takes each put's shard lock, so lockAll must
// take sessions.mu first too: in the other order one of them holds every
// shard lock waiting for sessions.mu while the anchor holds that waiting for
// a shard lock, and the loop misses its deadline. The slowed fsync keeps an
// anchor inside sessions.mu long enough for lockAll to meet it there.
func TestLockAllBesideFoldingAnchors(t *testing.T) {
	const shards, writers, rounds = 4, 4, 40
	db, err := Open(t.TempDir(), shards, writers, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	hookSync(db.wal, func(File) error { time.Sleep(200 * time.Microsecond); return nil })
	for pid := range writers {
		if err := db.AppendHello(uint64(pid+1), pid); err != nil {
			t.Fatal(err)
		}
	}
	db.Lead()

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for pid := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := uint64(1); !stop.Load(); req++ {
				db.BeginRequest(pid, req)
				for s := range shards {
					db.ShardBacking(s).Journal(fmt.Sprintf("k%d-%d", pid, s), int64(req), Stamp{PID: pid, Status: int(runtime.StatusOK)})
				}
				if err := db.Sync(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() {
		for range rounds {
			if err := db.Compact(); err != nil {
				done <- err
				return
			}
			db.Subscribe(0).Close()
			db.StateHash()
			db.Lead()
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("lockAll's callers beside folding anchors missed their deadline: lock-order deadlock")
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("writer: %v", err)
	}
}
