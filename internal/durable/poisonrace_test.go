package durable

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCommitsRaceFailingEpochs races concurrent durable steps of
// every kind across successive epochs of a log whose fsync fails: the first
// epoch fails its fsync and poisons the log, every later one fails at the
// append. Every caller must observe the injected error, whichever epoch it
// rode and whether it led or joined it, and nothing may deadlock. Run under
// -race, this also checks the leader hand-off for data races.
func TestConcurrentCommitsRaceFailingEpochs(t *testing.T) {
	boom := errors.New("injected EIO")
	for round := 0; round < 20; round++ {
		db, err := Open(t.TempDir(), 1, 4, 16)
		if err != nil {
			t.Fatal(err)
		}
		db.AppendHello(1, 0)
		db.ShardBacking(0).Persist("k", 1) // whichever epoch is first has an fsync to fail
		hookSync(db.wal, func(File) error { return boom })
		epochs0, _ := db.GroupCommitStats()

		const n, per = 8, 3
		steps := []func(i, j int) error{
			func(i, j int) error { return db.CommitOutcome(1, uint64(i*per+j+1), []byte("x")) },
			func(i, j int) error { return db.Sync() },
			func(i, j int) error { return db.NoteSID(uint64(100 + i*per + j)) },
			func(i, j int) error { return db.AppendEnd(uint64(200 + i)) },
		}
		errs := make(chan error, n*per)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for j := 0; j < per; j++ {
					errs <- steps[(i+j)%len(steps)](i, j)
				}
			}(i)
		}
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: commits racing failing epochs deadlocked", round)
		}
		close(errs)
		for err := range errs {
			if !errors.Is(err, boom) {
				t.Fatalf("round %d: commit racing failing epochs = %v, want wrapped %v", round, err, boom)
			}
		}
		if epochs, _ := db.GroupCommitStats(); epochs-epochs0 < per {
			t.Fatalf("round %d: %d epochs for %d sequential steps per caller", round, epochs-epochs0, per)
		}
		db.Close()
	}
}

// TestPoisonedLogRejectsAfterGroupCommitRestart: once an epoch fsync has
// failed, the write-ahead log is poisoned for good — the epochs led after it,
// even once the kernel "recovers", must not launder the failure into fresh
// durability claims.
func TestPoisonedLogRejectsAfterGroupCommitRestart(t *testing.T) {
	db, err := Open(t.TempDir(), 1, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.AppendHello(1, 0)
	boom := errors.New("injected EIO")
	fail := true
	hookSync(db.wal, func(f File) error {
		if fail {
			return boom
		}
		return f.Sync()
	})
	if err := db.CommitOutcome(1, 1, []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("poisoning commit = %v, want wrapped %v", err, boom)
	}

	// The kernel "recovers" — but the first failure already voided the log's
	// durability story for every epoch after it.
	fail = false
	if err := db.CommitOutcome(1, 2, []byte("y")); !errors.Is(err, boom) {
		t.Fatalf("commit in the next epoch on a poisoned log = %v, want wrapped %v", err, boom)
	}
	if err := db.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync on a poisoned log = %v, want wrapped %v", err, boom)
	}
}
