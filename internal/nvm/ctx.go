package nvm

// Ctx is the execution context of a single operation (or recovery-function)
// attempt by one process. It is not safe for concurrent use: each attempt
// gets a fresh Ctx from Space.AcquireCtx, bound to the epoch at which the
// attempt started.
//
// Every primitive on a cell calls into the Ctx before touching memory. The
// Ctx:
//
//   - checks the operation's epoch against the system epoch and panics with
//     Crashed if a crash happened since the attempt began;
//   - consults the crash plan (if any) so deterministic tests can inject a
//     system-wide crash immediately before a chosen primitive step;
//   - counts primitive steps and statistics in the context itself;
//     Space.ReleaseCtx adds them to the space's Stats once, so an
//     operation makes no shared read-modify-write for its bookkeeping.
type Ctx struct {
	pid   int
	epoch *Epoch
	start uint64
	plan  CrashPlan

	steps  uint64
	cell   int
	counts [4]uint64 // primitives so far, indexed by OpKind-1; added to Stats at ReleaseCtx
}

// Steps returns the number of primitive operations performed so far under
// this context.
func (c *Ctx) Steps() uint64 { return c.steps }

// CellID identifies the memory cell the pending primitive targets: the
// space-local allocation index of the Cell, Private, word of a Words array
// or bit of a Bits array, set immediately before the crash plan is
// consulted. Schedule explorers use it to decide whether two processes'
// pending primitives commute (disjoint cells, or two loads of the same
// cell). It is 0 outside a CrashPlan.CrashBefore call.
func (c *Ctx) CellID() int { return c.cell }

// pre runs the bookkeeping that precedes every primitive of every attempt,
// plan or no plan, while NO cell lock is held: it advances the step counter,
// consults the crash plan (whose hooks may run arbitrary code, including
// other processes' operations — the deterministic-interleaving mechanism
// used by schedule-driven tests) and fails fast on a stale epoch. Given the
// plane of a shared-cache array, it then takes the read-lock the primitive
// runs under, until plane.end (see plane.rlock).
func (c *Ctx) pre(kind OpKind, cell int, lock *plane) {
	c.steps++
	c.cell = cell
	if c.plan != nil && c.plan.CrashBefore(c, kind) {
		// A planned system-wide crash: advance the epoch so every other
		// in-flight operation dies at its next primitive, then die here.
		c.epoch.Advance()
	}
	c.cell = 0
	c.CheckAlive()
	if lock != nil {
		lock.rlock(c)
	}
}

// enter validates the epoch while a cell's exclusive lock is held (Flush)
// and records the primitive. The under-lock check guarantees the crash
// ordering invariant: a flush serialized before a crash-revert completes
// before the revert, and one serialized after it observes the advanced epoch
// and panics instead of persisting a value the crash already discarded.
func (c *Ctx) enter(kind OpKind) {
	if cur := c.epoch.Current(); cur != c.start {
		panic(Crashed{PID: c.pid, StartEpoch: c.start, ObservedEpoch: cur})
	}
	c.count(kind, 1)
}

// CheckAlive panics with Crashed if a system crash happened since the
// attempt began. Algorithms with local-only loops (e.g. the max-register
// double collect) call it to bound the time until an in-flight operation
// observes a crash even when it performs no shared-memory primitive.
func (c *Ctx) CheckAlive() {
	if cur := c.epoch.Current(); cur != c.start {
		panic(Crashed{PID: c.pid, StartEpoch: c.start, ObservedEpoch: cur})
	}
}

// alive is CheckAlive without the panic, for primitives that must release a
// read-lock before unwinding.
func (c *Ctx) alive() bool { return c.epoch.Current() == c.start }

// count records n primitives of one kind, after the atomic operation;
// Flush records inside enter instead.
func (c *Ctx) count(kind OpKind, n uint64) { c.counts[kind-1] += n }

// CrashPlan decides whether a system-wide crash should be injected
// immediately before a primitive step. Implementations must be safe for use
// from the single goroutine driving the Ctx.
//
// CrashBefore is invoked while no cell lock is held, so implementations may
// run arbitrary code — including driving other processes' operations to
// completion — before answering. Schedule-driven tests use this (see
// StepHook) to realize the paper's adversarial interleavings.
type CrashPlan interface {
	// CrashBefore reports whether the system should crash immediately
	// before the context performs its next primitive of the given kind.
	// The context's step counter has already been advanced, so
	// ctx.Steps() == 1 for the first primitive of the attempt.
	CrashBefore(ctx *Ctx, kind OpKind) bool
}

// CrashAtStep returns a plan that injects exactly one system-wide crash
// immediately before the step-th primitive (1-based) of the attempt.
func CrashAtStep(step uint64) CrashPlan { return &crashAtStep{step: step} }

type crashAtStep struct {
	step  uint64
	fired bool
}

func (p *crashAtStep) CrashBefore(ctx *Ctx, _ OpKind) bool {
	if p.fired || ctx.Steps() != p.step {
		return false
	}
	p.fired = true
	return true
}

// StepHook is a CrashPlan that injects no crash itself but runs Fn
// immediately before the Step-th primitive (1-based) of the attempt, once.
// Fn runs outside all cell locks, so it may drive other processes'
// operations to completion — the mechanism schedule-driven tests use to
// reproduce the paper's adversarial interleavings (e.g. the ABA schedule of
// Algorithm 1's correctness proof). Fn may also crash the system itself.
type StepHook struct {
	Step  uint64
	Fn    func()
	fired bool
}

var _ CrashPlan = (*StepHook)(nil)

// CrashBefore implements CrashPlan.
func (h *StepHook) CrashBefore(ctx *Ctx, _ OpKind) bool {
	if !h.fired && ctx.Steps() == h.Step {
		h.fired = true
		h.Fn()
	}
	return false
}

// Plans combines several CrashPlans: every plan is consulted on every step
// (so hooks always fire), and a crash is injected if any plan requests one.
type Plans []CrashPlan

var _ CrashPlan = Plans(nil)

// CrashBefore implements CrashPlan.
func (ps Plans) CrashBefore(ctx *Ctx, kind OpKind) bool {
	crash := false
	for _, p := range ps {
		if p != nil && p.CrashBefore(ctx, kind) {
			crash = true
		}
	}
	return crash
}
