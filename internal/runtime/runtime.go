// Package runtime executes recoverable operations under the system-wide
// crash-failure model of the paper.
//
// A System owns a simulated memory Space shared by N processes and a
// history log. Operations are executed through Execute, which implements
// the paper's invocation protocol:
//
//  1. The caller announces the operation (writing Ann_p.op, resetting
//     Ann_p.resp to ⊥ and Ann_p.CP to 0 — the auxiliary state of
//     Definition 1).
//  2. The operation body runs. If a system-wide crash occurs, the body's
//     next primitive panics, the Go stack unwinds (discarding volatile
//     locals exactly as the crash model discards volatile state), and
//     Execute catches the panic.
//  3. The recovery function then runs with the same arguments, re-entered
//     as many times as crashes interrupt it, until it completes with either
//     the operation's response (the operation was linearized) or the
//     distinguished fail verdict (it was not).
//
// Processes recover independently and asynchronously: Execute performs no
// cross-process coordination after a crash.
package runtime

import (
	"fmt"

	"detectable/internal/history"
	"detectable/internal/nvm"
	"detectable/internal/spec"
)

// Status classifies the outcome of one Execute call.
type Status int

// Outcome statuses.
const (
	// StatusOK: the body completed without observing a crash.
	StatusOK Status = iota + 1
	// StatusRecovered: the body crashed and the recovery function returned
	// the operation's response — the operation was linearized.
	StatusRecovered
	// StatusFailed: the body crashed and the recovery function returned
	// fail — the operation was not linearized. The caller may re-invoke.
	StatusFailed
	// StatusNotInvoked: the crash hit during the caller's announcement,
	// before the operation was invoked; no recovery function runs.
	StatusNotInvoked
)

// String returns a short name for the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRecovered:
		return "recovered"
	case StatusFailed:
		return "failed"
	case StatusNotInvoked:
		return "not-invoked"
	default:
		return "unknown"
	}
}

// Linearized reports whether the outcome means the operation took effect.
func (s Status) Linearized() bool { return s == StatusOK || s == StatusRecovered }

// Outcome is the result of executing one recoverable operation.
type Outcome[R comparable] struct {
	Status Status
	// Resp is the operation's response when Status.Linearized().
	Resp R
	// Crashes is the number of crash interruptions this execution observed
	// (body and recovery attempts combined).
	Crashes int
}

// Op describes one recoverable operation instance: the caller-side
// announcement, the body, and the recovery function (which the system
// calls with the same arguments as the body — both are closures over them).
type Op[R comparable] struct {
	// Desc is the abstract operation, recorded in the history log.
	Desc spec.Operation
	// Announce performs the caller-side announcement writes. May be nil
	// for operations requiring no auxiliary state (e.g. the max register).
	Announce func(ctx *nvm.Ctx)
	// Body executes the operation and returns its response.
	Body func(ctx *nvm.Ctx) R
	// Recover infers whether the crashed operation was linearized,
	// returning (response, true) if so and (zero, false) for fail.
	// May be nil only if Body can never crash (no primitives).
	Recover func(ctx *nvm.Ctx) (R, bool)
	// Encode maps the response to the integer encoding used by history
	// logs. Required when the System records histories.
	Encode func(R) int
}

// System is one simulated crash-prone shared-memory system.
type System struct {
	space *nvm.Space
	n     int
	log   *history.Log
	armed []nvm.CrashPlan // armed[pid] replaces pid's per-call plans; nil until Arm
}

// NewSystem returns a system of n processes with a fresh memory space
// under the private-cache model and a history log.
func NewSystem(n int) *System {
	return NewSystemModel(n, nvm.ModelPrivateCache)
}

// NewSystemModel returns a system of n processes whose memory space uses
// the given model (Section 6 of the paper): objects allocated in it get
// direct-persist words, flush-after-write cached words, or raw cached words.
func NewSystemModel(n int, m nvm.Model) *System {
	s := &System{space: nvm.NewSpaceModel(m), n: n, log: &history.Log{}}
	// Record every system-wide crash in the history, whether injected by
	// System.Crash or by a crash plan firing inside an operation.
	s.space.Epoch().SetAdvanceHook(s.log.Crash)
	return s
}

// N returns the number of processes.
func (s *System) N() int { return s.n }

// Space returns the system's memory space.
func (s *System) Space() *nvm.Space { return s.space }

// Log returns the system's history log.
func (s *System) Log() *history.Log { return s.log }

// SetHistory replaces the system's history log — e.g. with history.NewOff
// on served paths (internal/shardkv), where nothing reads a history and an
// unbounded full log would serialize and grow without limit, or in
// benchmark floors. Call it before the first operation executes; events
// already recorded in the previous log are not carried over. The crash hook
// is re-installed so system-wide crashes land in the new log.
func (s *System) SetHistory(l *history.Log) {
	s.log = l
	s.space.Epoch().SetAdvanceHook(l.Crash)
}

// Crash injects a system-wide crash-failure: every in-flight operation
// panics at its next primitive and unflushed shared-cache state is lost.
// The crash event is recorded in the history via the epoch hook.
func (s *System) Crash() {
	s.space.Crash()
}

// Arm makes every attempt of process pid consult plan: the announcement
// and body, and every recovery re-entry, however many crashes interrupt
// it. The armed plan replaces any per-call plans. A controlled scheduler
// (internal/explore) arms each process once, before any process runs, so
// that every primitive the objects' own methods execute is a point where
// it can park the process; Arm must not race with a running operation.
func (s *System) Arm(pid int, plan nvm.CrashPlan) {
	if s.armed == nil {
		s.armed = make([]nvm.CrashPlan, s.n)
	}
	s.armed[pid] = plan
}

// Execute runs op as process pid following the crash-recovery protocol.
// plans supplies deterministic crash plans per attempt: plans[0] drives the
// announcement+body attempt, plans[i] the i-th recovery attempt. Missing
// entries mean no planned crash (crashes from other processes still
// interrupt the attempt). A plan armed for pid (Arm) replaces plans.
func Execute[R comparable](s *System, pid int, op Op[R], plans ...nvm.CrashPlan) Outcome[R] {
	if op.Encode == nil {
		// Capture only the description: closing over op itself would force
		// the whole Op (and its closures) to escape on every call.
		desc := op.Desc
		op.Encode = func(R) int { panic(fmt.Sprintf("runtime: op %s has no response encoder", desc)) }
	}

	ctx := s.space.AcquireCtx(pid, s.planAt(pid, plans, 0))
	defer s.space.ReleaseCtx(ctx)

	// Phase 1: caller-side announcement (auxiliary state).
	if op.Announce != nil {
		if crashed := runPhase(func() { op.Announce(ctx) }); crashed {
			// The operation was never invoked; per the model, Ann_p.op does
			// not name it, so no recovery function runs for it.
			return Outcome[R]{Status: StatusNotInvoked, Crashes: 1}
		}
	}

	// Phase 2: the body.
	s.log.Invoke(pid, op.Desc)
	var resp R
	if crashed := runPhase(func() { resp = op.Body(ctx) }); !crashed {
		s.log.Return(pid, op.Encode(resp))
		return Outcome[R]{Status: StatusOK, Resp: resp}
	}

	// Phase 3: recovery, re-entered on every further crash.
	if op.Recover == nil {
		panic(fmt.Sprintf("runtime: op %s crashed but has no recovery function", op.Desc))
	}
	crashes := 1
	for attempt := 1; ; attempt++ {
		rctx := s.space.AcquireCtx(pid, s.planAt(pid, plans, attempt))
		var (
			r  R
			ok bool
		)
		if crashed := runPhase(func() { r, ok = op.Recover(rctx) }); crashed {
			s.space.ReleaseCtx(rctx)
			crashes++
			continue
		}
		s.space.ReleaseCtx(rctx)
		if ok {
			s.log.RecoverReturn(pid, op.Encode(r), false)
			return Outcome[R]{Status: StatusRecovered, Resp: r, Crashes: crashes}
		}
		s.log.RecoverReturn(pid, 0, true)
		return Outcome[R]{Status: StatusFailed, Crashes: crashes}
	}
}

// ExecuteNRL wraps Execute with the nesting-safe recoverable linearizability
// transformation from Section 6 of the paper: a fail verdict (or a crash
// during announcement) triggers re-invocation, so the call always completes
// with a linearized response.
//
// makeOp must return a fresh Op for each (re-)invocation, so announcements
// re-run and closures capture fresh volatile state.
func ExecuteNRL[R comparable](s *System, pid int, makeOp func() Op[R]) (R, int) {
	invocations := 0
	for {
		invocations++
		out := Execute(s, pid, makeOp())
		if out.Status.Linearized() {
			return out.Resp, invocations
		}
	}
}

// runPhase runs f, converting a Crashed panic into a true return. Any other
// panic propagates.
func runPhase(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nvm.Crashed); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	f()
	return false
}

// planAt is the plan of attempt i of pid's operation: its armed plan if
// it has one, else plans[i].
func (s *System) planAt(pid int, plans []nvm.CrashPlan, i int) nvm.CrashPlan {
	if s.armed != nil && s.armed[pid] != nil {
		return s.armed[pid]
	}
	if i < len(plans) {
		return plans[i]
	}
	return nil
}

// EncodeInt is the identity response encoder.
func EncodeInt(v int) int { return v }

// EncodeBool encodes a boolean response as spec.True/spec.False.
func EncodeBool(v bool) int {
	if v {
		return spec.True
	}
	return spec.False
}
