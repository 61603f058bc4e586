package durable

import (
	"sync"
	"time"
)

// Group commit batches concurrent CommitOutcome barriers into epochs. Each
// commit stages its encoded outcome record into the current epoch and
// parks on the epoch's broadcast channel; a single committer goroutine
// anchors one epoch at a time — every staged record appended to the
// write-ahead log behind the puts journaled so far, one coalesced write,
// one fsync (DB.anchor) — and releases every waiter at once. N concurrent
// commits thus cost one fsync instead of N, while each released verdict is
// exactly as durable as under the per-mutation path: a reply is released
// only after the fsync that anchors its epoch has returned.
//
// Ordering is preserved by construction: a commit joins an epoch only
// after its puts were journaled, so the epoch's records land in the log
// behind them, and they live only in the epoch buffer — outside the log and
// the sessions mirror — until the anchor. Read-only replies never enter the
// pipeline at all.
type groupCommit struct {
	mu       sync.Mutex
	cond     *sync.Cond // signaled when cur gains its first member or on stop
	running  bool
	interval time.Duration
	cur      *epoch
	freeBufs [][]byte      // recycled epoch buffers
	stopc    chan struct{} // closed by Stop: interrupts the batching window
	stopped  chan struct{}
	epochs   uint64 // anchored epochs
	commits  uint64 // commits routed through epochs
}

// epoch is one commit batch: the staged outcome records of every member (a
// stageRec concatenation, what DB.anchor takes), the broadcast channel its
// waiters park on, and the anchor verdict they all share.
type epoch struct {
	buf  []byte
	n    int
	done chan struct{}
	err  error
}

// StartGroupCommit switches CommitOutcome onto the epoch pipeline.
// interval is the batching window the committer waits after an epoch gains
// its first member before anchoring it: 0 anchors immediately (commits
// still coalesce naturally while a previous epoch's fsync is in flight),
// larger values trade reply latency for wider batches. Calling it while
// running just retunes the interval.
func (db *DB) StartGroupCommit(interval time.Duration) {
	gc := &db.gc
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.running {
		gc.interval = interval
		return
	}
	if gc.cond == nil {
		gc.cond = sync.NewCond(&gc.mu)
	}
	gc.running = true
	gc.interval = interval
	gc.cur = gc.newEpochLocked()
	gc.stopc = make(chan struct{})
	gc.stopped = make(chan struct{})
	go db.commitLoop(gc.stopc, gc.stopped)
}

// StopGroupCommit drains the in-flight epoch, stops the committer, and
// reverts CommitOutcome to the synchronous per-mutation path. Safe to call
// when not running; Close calls it.
func (db *DB) StopGroupCommit() {
	gc := &db.gc
	gc.mu.Lock()
	if !gc.running {
		gc.mu.Unlock()
		return
	}
	gc.running = false
	gc.cond.Signal()
	close(gc.stopc)
	stopped := gc.stopped
	gc.mu.Unlock()
	<-stopped
}

// GroupCommitStats reports how many epochs have been anchored and how many
// commits rode them — the coalescing ratio commits/epochs is the fsyncs
// saved.
func (db *DB) GroupCommitStats() (epochs, commits uint64) {
	db.gc.mu.Lock()
	defer db.gc.mu.Unlock()
	return db.gc.epochs, db.gc.commits
}

// join stages one commit into the current epoch and returns it, or nil
// when group commit is not running (the caller then commits
// synchronously). The reply bytes are copied into the epoch buffer before
// returning, so the caller's buffer may be reused while it waits.
func (gc *groupCommit) join(sid, reqID uint64, reply []byte) *epoch {
	gc.mu.Lock()
	if !gc.running {
		gc.mu.Unlock()
		return nil
	}
	e := gc.cur
	e.buf = stageOutcome(e.buf, sid, reqID, reply)
	e.n++
	gc.commits++
	if e.n == 1 {
		gc.cond.Signal()
	}
	gc.mu.Unlock()
	return e
}

// commitLoop is the committer: it waits for the current epoch to gain a
// member, optionally lingers for the batching interval so more commits can
// join, swaps in a fresh epoch, anchors the full one, and broadcasts the
// verdict. Epochs anchor strictly one at a time, in order.
func (db *DB) commitLoop(stopc, stopped chan struct{}) {
	gc := &db.gc
	defer close(stopped)
	for {
		gc.mu.Lock()
		for gc.running && gc.cur.n == 0 {
			gc.cond.Wait()
		}
		if gc.cur.n == 0 {
			// Stopped with nothing staged: done.
			gc.mu.Unlock()
			return
		}
		interval := gc.interval
		draining := !gc.running
		gc.mu.Unlock()
		if interval > 0 && !draining {
			// The batching window: more commits join the epoch while we
			// linger. A stop cuts the window short so drains never wait it
			// out.
			select {
			case <-time.After(interval):
			case <-stopc:
			}
		}
		gc.mu.Lock()
		e := gc.cur
		gc.cur = gc.newEpochLocked()
		gc.epochs++
		gc.mu.Unlock()
		e.err = db.anchor(e.buf)
		close(e.done)
		gc.recycle(e)
	}
}

// newEpochLocked returns a fresh epoch, reusing a recycled buffer when one
// is available. Called with gc.mu held.
func (gc *groupCommit) newEpochLocked() *epoch {
	e := &epoch{done: make(chan struct{})}
	if n := len(gc.freeBufs); n > 0 {
		e.buf = gc.freeBufs[n-1][:0]
		gc.freeBufs = gc.freeBufs[:n-1]
	}
	return e
}

// recycle returns an anchored epoch's buffer to the free list. The epoch
// struct itself is never reused — late waiters still read its err field.
func (gc *groupCommit) recycle(e *epoch) {
	gc.mu.Lock()
	if len(gc.freeBufs) < 4 {
		gc.freeBufs = append(gc.freeBufs, e.buf)
	}
	gc.mu.Unlock()
	e.buf = nil
}
