package durable

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestStopGroupCommitRacesFailingEpochFsync races StopGroupCommit against
// commits parked on an epoch whose fsync fails: every commit must observe
// the injected error — whether its epoch was anchored by the committer,
// drained by the stop, or pushed onto the synchronous path after it — and
// nothing may deadlock. Run under -race, this also checks the stop/fail
// handoff for data races.
func TestStopGroupCommitRacesFailingEpochFsync(t *testing.T) {
	boom := errors.New("injected EIO")
	for round := 0; round < 20; round++ {
		db, err := Open(t.TempDir(), 1, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		db.AppendHello(1, 0)
		db.wal.syncFn = func(File) error { return boom }
		db.StartGroupCommit(time.Millisecond)

		const n = 8
		errs := make(chan error, n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				errs <- db.CommitOutcome(1, uint64(i+1), []byte("x"))
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			db.StopGroupCommit()
		}()
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if !errors.Is(err, boom) {
				t.Fatalf("round %d: commit racing stop = %v, want wrapped %v", round, err, boom)
			}
		}
		db.StopGroupCommit()
	}
}

// TestPoisonedLogRejectsAfterGroupCommitRestart: once an epoch fsync has
// failed, the write-ahead log is poisoned for good — restarting group commit
// must not launder the failure into fresh durability claims.
func TestPoisonedLogRejectsAfterGroupCommitRestart(t *testing.T) {
	db, err := Open(t.TempDir(), 1, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	db.AppendHello(1, 0)
	boom := errors.New("injected EIO")
	fail := true
	db.wal.syncFn = func(f File) error {
		if fail {
			return boom
		}
		return f.Sync()
	}
	db.StartGroupCommit(time.Millisecond)
	if err := db.CommitOutcome(1, 1, []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("poisoning commit = %v, want wrapped %v", err, boom)
	}
	db.StopGroupCommit()

	// The kernel "recovers" and group commit is restarted — but the first
	// failure already voided the log's durability story.
	fail = false
	db.StartGroupCommit(time.Millisecond)
	if err := db.CommitOutcome(1, 2, []byte("y")); !errors.Is(err, boom) {
		t.Fatalf("commit after restart on poisoned log = %v, want wrapped %v", err, boom)
	}
	db.StopGroupCommit()
	// The synchronous path stays poisoned too.
	if err := db.CommitOutcome(1, 3, []byte("z")); !errors.Is(err, boom) {
		t.Fatalf("sync commit on poisoned log = %v, want wrapped %v", err, boom)
	}
}
