package nvm

// Backing is the pluggable persistence substrate behind a Space. The
// default heap-backed Space (no backing) persists only within the process:
// cell values survive simulated epoch crashes but evaporate when the
// process exits. A file-backed persistent space carries a Backing
// (internal/durable supplies one per shard) that journals every logical
// persist handed to it into an append-only record log, which the owning
// layer's durability barrier (durable.DB.Sync) makes physically durable —
// so the paper's persist ordering maps onto write+sync ordering, and a
// whole-process crash becomes one more survivable failure.
//
// The granularity is the durable root, not the individual simulated cell:
// an algorithm's internal cells (toggle bits, announcement slots) exist to
// make in-flight operations detectable, and a whole-process crash leaves no
// in-flight operations to recover inside the space — the session layer
// (internal/server) recovers those from its own durable outcome windows.
// What must survive is the linearized state of each root, which the owning
// layer journals via Space.Journal at the moment an operation's verdict
// becomes linearized — together with whose effect it is, as the paper's
// register R persists ⟨v, q, b⟩ and not v alone, so that recovery can tell
// the writer its verdict from the persisted value itself.
type Backing interface {
	// Journal journals the persisted value of the durable root named key
	// and the Stamp of the operation that persisted it. Appends may be
	// buffered; they are durable only after the owner's barrier.
	Journal(key string, val int64, by Stamp)
}

// Stamp says whose effect a persist is: the process that wrote it and the
// detectable verdict of its operation — a runtime.Status and the crashes it
// observed, as integers, since this package sits below runtime — and, for
// an entry of a batch, the entry's index and the batch's length (Batch 0
// for a single operation).
type Stamp struct {
	PID, Status, Crashes int
	Entry, Batch         int
}

// SetBacking attaches the persistence substrate. Like SetHistory, call it
// before the first operation executes; the field is read without
// synchronization on the journal path.
func (s *Space) SetBacking(b Backing) { s.backing = b }

// Journal forwards one logical persist and its stamp to the backing store.
// On a heap-backed space it is a no-op, keeping the non-durable hot path
// free of any cost beyond a nil check.
func (s *Space) Journal(key string, val int64, by Stamp) {
	if s.backing != nil {
		s.backing.Journal(key, val, by)
	}
}
