package durable

// Mutation hooks, one exported bool per seeded bug as internal/rcas,
// internal/rw and internal/queue have them: each deliberately breaks one
// step whose necessity the durability argument depends on, so the
// crash-prefix sweep (internal/simio) can prove it actually detects the bug
// class it exists for. Production code never sets them; `check sweep
// -mutant` (cmd/check) and the mutation tests do.

// MutantOutcomeFirst inverts the commit protocol's ordering: the anchor
// holds the staged puts back, writes and syncs its outcome records in front
// of them, and only then lets the puts follow. The outcome record it moves
// is that of an MPUT with a failed entry, the one reply that still commits
// as a record behind puts: it promises its other entries' stamped puts. A
// crash in the inverted window leaves a durable verdict whose write is gone
// — on recovery the client would be promised an effect the store lost, the
// exact violation "an outcome sits behind the puts it depends on" rules
// out. The simio sweep must catch this within its crash-point enumeration.
var MutantOutcomeFirst bool

// MutantPublishAtBarrier drops the gate of the read view: an epoch's puts
// are published the moment it is held — on a standby at its barrier, before
// the commit mark, showing values the primary has not fsynced and, if it
// crashes there and restarts, never had (the simio replica sweep must catch
// this); on the node that leads at the fold, before the gating ack, showing
// values a promoted standby never had (the Stage B test's promote column
// must catch that).
var MutantPublishAtBarrier bool

// MutantRewriteNoDirSync drops the last step of a compaction: the rewritten
// log is renamed over the old one and appended to without the directory
// having been synced. Verdicts anchored in the new file are then released
// while a crash may still resurrect the old log, which never held them. The
// simio sweep must catch this as a released verdict lost.
var MutantRewriteNoDirSync bool

// holdBack removes and returns the staged, framed records. Mutant only.
func (l *Log) holdBack() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	held := append([]byte(nil), l.buf...)
	l.buf = l.buf[:0]
	return held
}
