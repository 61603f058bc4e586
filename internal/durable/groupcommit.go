package durable

import (
	"sync"
	"time"
)

// Group commit is a leader chain. Every durable step — Sync (the bare
// barrier of a write whose stamps carry its reply), CommitOutcome,
// AppendHello, NoteSID, AppendEnd, a standby's replicated batch — stages
// its records, if any, into the open epoch. The step that opens an epoch
// leads it: it waits until the previous epoch's anchor has returned, closes
// its epoch to joiners, runs DB.anchor once for every member and wakes them.
// Whatever arrives while an anchor is in flight joins the next epoch, so a
// lone writer pays one write and one fsync and concurrent writers share one.
// A verdict is released only after the anchor of its epoch has returned.
//
// A step joins an epoch only after its puts were journaled, so the epoch's
// records land in the log behind them; until the anchor they live only in the
// epoch buffer, outside the log and the sessions mirror.
type groupCommit struct {
	mu      sync.Mutex
	cond    sync.Cond // on mu; broadcast when an anchor returns
	open    *epoch    // the epoch steps join; nil until a step opens one
	busy    bool      // an epoch's anchor is running
	free    *epoch    // an epoch every member has left, for the next one
	epochs  uint64    // anchored epochs
	commits uint64    // steps that rode them
}

// epoch is one batch: its members' records (framed, what DB.anchor takes)
// and the anchor's verdict, which they all share. The last
// member to collect the verdict hands the epoch, buffer included, to the next
// one, so a warm commit allocates none.
type epoch struct {
	buf     []byte
	members int // members that have not collected the verdict yet
	done    bool
	err     error
}

// StartGroupCommit does nothing. Every durable step rides an epoch, so there
// is nothing to start; it remains because the benchmark module calls it.
func (db *DB) StartGroupCommit(time.Duration) {}

// GroupCommitStats reports how many epochs have been anchored and how many
// durable steps rode them — the coalescing ratio commits/epochs is the fsyncs
// saved.
func (db *DB) GroupCommitStats() (epochs, commits uint64) {
	db.gc.mu.Lock()
	defer db.gc.mu.Unlock()
	return db.gc.epochs, db.gc.commits
}

// commit stages one durable step into the open epoch — stage appends its
// records to the epoch's buffer, nil stages none — and returns the epoch's
// anchor verdict once that anchor has returned.
func (db *DB) commit(stage func(recs []byte) []byte) error {
	gc := &db.gc
	gc.mu.Lock()
	e := gc.open
	lead := e == nil
	if lead {
		if e = gc.free; e != nil {
			gc.free = nil
		} else {
			e = new(epoch)
		}
		gc.open = e
	}
	if stage != nil {
		e.buf = stage(e.buf)
	}
	e.members++
	gc.commits++
	if lead {
		for gc.busy {
			gc.cond.Wait()
		}
		gc.open, gc.busy = nil, true
		gc.epochs++
		gc.mu.Unlock()
		err := db.anchor(e.buf)
		gc.mu.Lock()
		e.done, e.err, gc.busy = true, err, false
		gc.cond.Broadcast()
	}
	for !e.done {
		gc.cond.Wait()
	}
	err := e.err
	if e.members--; e.members == 0 {
		buf := e.buf[:0]
		if cap(buf) > maxSpare {
			buf = nil
		}
		*e = epoch{buf: buf}
		gc.free = e
	}
	gc.mu.Unlock()
	return err
}
