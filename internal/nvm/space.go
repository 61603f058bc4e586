package nvm

import (
	"sync"
	"sync/atomic"
)

// crashable is implemented by memory components with volatile state that a
// system-wide crash discards.
type crashable interface {
	onCrash()
}

// Model selects how NewWord materializes memory words (Section 6 of the
// paper).
type Model int

// Memory models.
const (
	// ModelPrivateCache is the abstract model the paper's algorithms are
	// written in: primitives apply directly to NVM.
	ModelPrivateCache Model = iota + 1
	// ModelSharedCacheAuto is the realistic shared-cache model with the
	// flush-after-write transformation applied, preserving correctness.
	ModelSharedCacheAuto
	// ModelSharedCacheRaw is the shared-cache model with no persistency
	// instructions; crash-free runs behave identically, but crashes lose
	// unflushed effects — including effects of completed operations.
	ModelSharedCacheRaw
)

// String returns a short name for the model.
func (m Model) String() string {
	switch m {
	case ModelPrivateCache:
		return "private-cache"
	case ModelSharedCacheAuto:
		return "shared-cache+flush"
	case ModelSharedCacheRaw:
		return "shared-cache-raw"
	default:
		return "unknown"
	}
}

// Space is one simulated memory system: it owns the failure epoch, the
// primitive-operation statistics and the registry of volatile components
// that must be reset on a crash. All higher-level objects (registers, CAS
// objects, announcement structures, ...) allocate their cells inside a
// Space.
//
// The zero value is ready to use.
type Space struct {
	epoch Epoch
	stats Stats
	model Model

	mu         sync.Mutex
	crashables []crashable
	cells      int // cell identities reserved so far
	// spare counts the reserved cells no object uses yet: the free
	// elements of a slab. Atomic, so handing one out takes no lock.
	spare atomic.Int64
}

// NewSpace returns an empty memory system under the private-cache model.
func NewSpace() *Space { return &Space{model: ModelPrivateCache} }

// NewSpaceModel returns an empty memory system under the given model.
func NewSpaceModel(m Model) *Space { return &Space{model: m} }

// Model returns the space's memory model.
func (s *Space) Model() Model {
	if s.model == 0 {
		return ModelPrivateCache
	}
	return s.model
}

// Epoch returns the space's failure epoch.
func (s *Space) Epoch() *Epoch { return &s.epoch }

// Stats returns the space's primitive-operation statistics.
func (s *Space) Stats() *Stats { return &s.stats }

// ctxPool recycles the per-attempt contexts of crash-free operations, so
// the operation hot path allocates nothing. Plan-armed contexts are never
// pooled: a CrashPlan's hooks may retain the context (schedule-driven
// tests do arbitrary things), and injection runs are not hot paths.
var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// AcquireCtx returns a fresh execution context for one operation attempt
// by process pid, bound to the current epoch; plan may be nil. Pair it with
// ReleaseCtx once the attempt has completed, crashed or not, and the
// context can no longer be referenced. The context counts its primitives
// itself: they reach Stats at ReleaseCtx, not before.
func (s *Space) AcquireCtx(pid int, plan CrashPlan) *Ctx {
	c := ctxPool.Get().(*Ctx)
	*c = Ctx{pid: pid, epoch: &s.epoch, start: s.epoch.Current(), plan: plan}
	return c
}

// ReleaseCtx adds the context's primitives to Stats, one atomic add per
// kind it made, and returns a plan-free context to the pool. Plan-armed
// contexts are dropped for the garbage collector instead (see ctxPool).
func (s *Space) ReleaseCtx(c *Ctx) {
	for k, n := range c.counts {
		if n != 0 {
			s.stats.add(OpKind(k+1), n)
		}
	}
	if c.plan == nil {
		ctxPool.Put(c)
	}
}

// Crash simulates a system-wide crash-failure: the epoch advances (so every
// in-flight operation panics with Crashed at its next primitive) and all
// registered volatile state — shared-cache contents — is discarded. Values
// already persisted to NVM survive. It returns the new epoch.
func (s *Space) Crash() uint64 {
	// Advance first: any store that serializes after a cache revert must
	// observe the new epoch and die rather than resurrect the lost value.
	e := s.epoch.Advance()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.crashables {
		c.onCrash()
	}
	return e
}

// CellCount returns the number of memory cells allocated in the space, used
// by the space-accounting experiments. Cells a slab allocator holds in
// reserve (Spare) are not counted until they are handed out.
func (s *Space) CellCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells - int(s.spare.Load())
}

// Spare moves delta cells between "in use" and "spare". An allocator that
// takes cells from the space a slab at a time (rw.Procs: one NewWords and
// one NewBits per chunk of registers) declares the slab spare when it
// allocates it and takes each element's cells back with a negative delta
// when it hands the element out, so CellCount stays exact whatever the
// slab's fill. Identities are reserved at allocation and never move.
func (s *Space) Spare(delta int) { s.spare.Add(int64(delta)) }

func (s *Space) register(c crashable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashables = append(s.crashables, c)
}

// noteCell records a cell allocation and returns its space-local identity
// (1-based), which Ctx.CellID exposes to schedule explorers.
func (s *Space) noteCell() int { return s.noteCells(1) }

// noteCells reserves k contiguous cell identities for an array (Bits,
// NewWords) and returns the first.
func (s *Space) noteCells(k int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.cells + 1
	s.cells += k
	return first
}
