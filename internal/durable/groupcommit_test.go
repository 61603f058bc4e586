package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitCoalesces drives many concurrent commits through the
// leader chain while every fsync is slowed, so commits pile up behind the
// anchor in flight, and checks both halves of the contract: every committed
// verdict survives a reopen, and the commits shared materially fewer epochs
// (fsyncs) than there were commits.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 2, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	hookSync(db.wal, func(f File) error {
		time.Sleep(2 * time.Millisecond)
		return f.Sync()
	})
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	epochs0, commits0 := db.GroupCommitStats()

	const workers, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				req := uint64(w*per + i + 1)
				db.ShardBacking(int(req)%2).Persist(fmt.Sprintf("k%03d", req), int64(req))
				if err := db.CommitOutcome(1, req, []byte{byte(req)}); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("CommitOutcome: %v", err)
	}
	epochs, commits := db.GroupCommitStats()
	epochs, commits = epochs-epochs0, commits-commits0
	if commits != workers*per {
		t.Fatalf("commits = %d, want %d", commits, workers*per)
	}
	if epochs == 0 || epochs > commits/2 {
		t.Fatalf("epochs = %d for %d commits: expected coalescing", epochs, commits)
	}
	db.Close()

	db2, err := Open(dir, 2, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ss := db2.Sessions()
	if len(ss) != 1 || len(ss[0].Window) != workers*per {
		t.Fatalf("recovered %d sessions / %d outcomes, want 1 / %d", len(ss), len(ss[0].Window), workers*per)
	}
	for _, o := range ss[0].Window {
		if len(o.Reply) != 1 || o.Reply[0] != byte(o.ID) {
			t.Fatalf("outcome %d recovered as %v", o.ID, o.Reply)
		}
	}
}

// TestLogSyncFailurePoisons is the fsyncgate test: a failed fsync must
// poison the log — every later Append and Sync fails with the original
// cause — rather than let a retry report durability for pages the kernel
// may already have dropped.
func TestLogSyncFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("injected EIO")
	fail := true
	hookSync(l, func(f File) error {
		if fail {
			return boom
		}
		return f.Sync()
	})
	if err := l.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync after injected fsync failure = %v, want wrapped %v", err, boom)
	}
	// The kernel "recovers" — but the log must stay poisoned.
	fail = false
	if err := l.Append([]byte("more")); !errors.Is(err, boom) {
		t.Fatalf("Append on poisoned log = %v, want wrapped %v", err, boom)
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync retry on poisoned log = %v, want wrapped %v", err, boom)
	}
	if err := l.Reset(); !errors.Is(err, boom) {
		t.Fatalf("Reset on poisoned log = %v, want wrapped %v", err, boom)
	}
}

// TestGroupCommitEpochFailureFailsAllWaiters injects an fsync failure into
// the write-ahead log: every commit parked on the failing epoch must see the
// error, and later commits must keep failing (the log is poisoned, so no
// epoch can ever again claim durability).
func TestGroupCommitEpochFailureFailsAllWaiters(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 1, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.AppendHello(1, 0)
	boom := errors.New("injected EIO")
	hookSync(db.wal, func(File) error {
		time.Sleep(5 * time.Millisecond) // the other commits park meanwhile
		return boom
	})

	const n = 4
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- db.CommitOutcome(1, uint64(i+1), []byte("x"))
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("epoch waiter error = %v, want wrapped %v", err, boom)
		}
	}
	if err := db.CommitOutcome(1, 99, []byte("y")); !errors.Is(err, boom) {
		t.Fatalf("commit after poisoned epoch = %v, want wrapped %v", err, boom)
	}
}

// TestGroupCommitTornEpochTail is the crash-at-epoch-boundary recovery
// property at the storage layer: for ANY byte-level truncation of the
// write-ahead log (a torn tail mid-epoch), recovery yields a state where
// every surviving outcome record's effect is present in its shard — the
// outcome-implies-effect invariant cannot be widened by group commit,
// because an epoch's records sit in the log behind the puts they depend on.
func TestGroupCommitTornEpochTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, 2, 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	db.AppendHello(1, 0)
	const workers, per = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				req := uint64(w*per + i + 1)
				db.ShardBacking(int(req)%2).Persist(keyFor(req), int64(req))
				if err := db.CommitOutcome(1, req, []byte{byte(req)}); err != nil {
					t.Errorf("CommitOutcome(%d): %v", req, err)
				}
			}
		}(w)
	}
	wg.Wait()
	db.Close()
	if t.Failed() {
		t.Fatal("commit errors above")
	}

	logBytes, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	step := len(logBytes)/12 + 1
	for cut := 0; cut <= len(logBytes); cut += step {
		copyDir := t.TempDir()
		copyTree(t, dir, copyDir)
		if err := os.Truncate(filepath.Join(copyDir, "wal.log"), int64(cut)); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(copyDir, 2, 8, 256)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		effects := map[string]int64{}
		for i := 0; i < 2; i++ {
			db2.RangeShard(i, func(k string, v int64) { effects[k] = v })
		}
		for _, s := range db2.Sessions() {
			for _, o := range s.Window {
				req := o.ID
				if got, ok := effects[keyFor(req)]; !ok || got != int64(req) {
					t.Fatalf("cut %d: outcome %d recovered without its effect (got %d, present %v)", cut, req, got, ok)
				}
			}
		}
		db2.Close()
	}
}

func keyFor(req uint64) string { return fmt.Sprintf("k%03d", req) }

// copyTree copies the flat data directory src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
