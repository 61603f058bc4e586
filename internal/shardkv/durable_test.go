package shardkv

import (
	"fmt"
	"path/filepath"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
)

func openDB(t *testing.T, dir string, shards, procs int) *durable.DB {
	t.Helper()
	db, err := durable.Open(dir, shards, procs, 8)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	return db
}

// TestDurableRestoreAcrossReopen writes through a durable store, reopens
// the directory into a fresh store (a simulated whole-process restart) and
// checks every linearized value — including deletions — comes back. The
// last put follows an epoch crash of its shard: a simulated crash discards
// volatile state, not the shard's share of the log.
func TestDurableRestoreAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir, 4, 2)
	s := New(4, 2, Durable(db))
	for i := 0; i < 40; i++ {
		if n := s.PutRetry(0, key(t, i), 100+i); n < 1 {
			t.Fatalf("PutRetry returned %d", n)
		}
	}
	s.PutRetry(1, key(t, 3), 0)
	s.CrashShard(s.ShardFor(key(t, 40)))
	s.PutRetry(0, key(t, 40), 140)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2 := openDB(t, dir, 4, 2)
	defer db2.Close()
	s2 := New(4, 2, Durable(db2))
	for i := 0; i <= 40; i++ {
		want := 100 + i
		if i == 3 {
			want = 0
		}
		if got := s2.GetRetry(0, key(t, i)); got != want {
			t.Fatalf("key %d after restart = %d, want %d", i, got, want)
		}
	}
}

// TestMultiPutJournalsInEntryOrder pins that a batch is a loop: one MPUT
// appends its put-at records to the write-ahead log in entry order, so a
// torn MPUT leaves a prefix of its entries. The entries walk the shards
// backwards, twice, so that any grouping by shard would reorder them.
func TestMultiPutJournalsInEntryOrder(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	db := openDB(t, dir, shards, 2)
	s := New(shards, 2, Durable(db))
	var onShard [shards][]string
	for i, full := 0, 0; full < shards; i++ {
		k := fmt.Sprintf("key-%d", i)
		sh := s.ShardFor(k)
		if onShard[sh] = append(onShard[sh], k); len(onShard[sh]) == 2 {
			full++
		}
	}
	var entries []KV
	for round := 0; round < 2; round++ {
		for sh := shards - 1; sh >= 0; sh-- {
			entries = append(entries, KV{Key: onShard[sh][round], Val: len(entries)})
		}
	}
	for i, out := range s.MultiPut(0, entries) {
		if out.Status != runtime.StatusOK {
			t.Fatalf("entry %d outcome %+v", i, out)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	var journaled []string
	wal, err := durable.OpenLog(filepath.Join(dir, "wal.log"), func(rec []byte) error {
		if rec[0] == 0x06 { // put-at: a fixed header, the key, an i64 value
			journaled = append(journaled, string(rec[durable.PutAtOverhead-8:len(rec)-8]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if len(journaled) != len(entries) {
		t.Fatalf("log holds %d put-at records, want %d", len(journaled), len(entries))
	}
	for i, e := range entries {
		if journaled[i] != e.Key {
			t.Fatalf("record %d journals %q, want entry %d's %q (log order %q)", i, journaled[i], i, e.Key, journaled)
		}
	}
}

func key(t *testing.T, i int) string {
	t.Helper()
	return "k-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestFailedPutNotJournaled injects a crash plan that makes the write fail
// definitively: a fail verdict must leave no durable record, so a restart
// restores the pre-crash value.
func TestFailedPutNotJournaled(t *testing.T) {
	dir := t.TempDir()
	db := openDB(t, dir, 1, 2)
	s := New(1, 2, Durable(db))
	s.PutRetry(0, "k", 7)

	// Sweep crash steps until one yields a definite fail; every fail must
	// leave the durable state at 7.
	failed := false
	for step := uint64(1); step < 20; step++ {
		out := s.Put(0, "k", 999, nvm.CrashAtStep(step))
		if out.Status.Linearized() {
			s.PutRetry(0, "k", 7) // restore the expected value durably
			continue
		}
		failed = true
	}
	if !failed {
		t.Skip("no crash step produced a definite fail for this schedule")
	}
	db.Sync()
	db.Close()

	db2 := openDB(t, dir, 1, 2)
	defer db2.Close()
	s2 := New(1, 2, Durable(db2))
	if got := s2.GetRetry(0, "k"); got != 7 {
		t.Fatalf("failed put leaked into durable state: got %d, want 7", got)
	}
}

// TestDurableGeometryMismatchPanics pins the guard between a durable DB
// and a store of a different shard count.
func TestDurableGeometryMismatchPanics(t *testing.T) {
	db := openDB(t, t.TempDir(), 2, 2)
	defer db.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("New with mismatched durable geometry did not panic")
		}
	}()
	New(4, 2, Durable(db))
}

func TestLeaseProc(t *testing.T) {
	s := New(1, 4)
	if !s.LeaseProc(2) {
		t.Fatal("leasing free pid 2 failed")
	}
	if s.LeaseProc(2) {
		t.Fatal("double lease of pid 2 succeeded")
	}
	if s.LeaseProc(-1) || s.LeaseProc(4) {
		t.Fatal("out-of-range lease succeeded")
	}
	if s.FreeSlots() != 3 {
		t.Fatalf("FreeSlots = %d, want 3", s.FreeSlots())
	}
	// The leased pid must not be handed out by AcquireProc.
	seen := map[int]bool{}
	for {
		pid, ok := s.AcquireProc()
		if !ok {
			break
		}
		if pid == 2 {
			t.Fatal("AcquireProc handed out the leased pid")
		}
		seen[pid] = true
	}
	if len(seen) != 3 {
		t.Fatalf("acquired %d pids, want 3", len(seen))
	}
	s.ReleaseProc(2)
	if _, ok := s.AcquireProc(); !ok {
		t.Fatal("released pid not acquirable")
	}
}
