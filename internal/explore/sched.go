package explore

import (
	"fmt"
	"iter"

	"detectable/internal/nvm"
	"detectable/internal/spec"
)

// This file is the execution engine: it runs one N-process execution of a
// Program under a controlled scheduler, so that the interleaving of shared-
// memory primitives — and the placement of system-wide crashes — is decided
// entirely by an explicit sequence of Decisions instead of by the Go
// scheduler.
//
// Mechanism: each process runs as a coroutine (iter.Pull) and is armed
// once on the instance's system (runtime.System.Arm) with a per-process
// schedPlan, and every operation runs through the object's own method, the
// call that ships. Every primitive of every attempt goes through Ctx.pre,
// which consults the plan while no cell lock is held, and is otherwise the
// code an unarmed attempt runs. The plan parks the process there — before
// the primitive executes, which is exactly the crash-point granularity of
// the paper's model — by yielding to the scheduler, which resumes it with
// the coroutine's next and unwinds it with stop. Processes additionally
// park once before each operation of their program, so invocation logging
// is serialized too. Only the scheduler or the one process it resumed
// runs; everything between two parks happens atomically with respect to
// the other processes, which makes an execution a deterministic function
// of its decision sequence.

// Decision is one scheduling choice: either resume process Pid until its
// next park (executing exactly the one primitive it is parked before, plus
// any crash-free local work up to the next scheduling point), or inject a
// system-wide crash (Crash true; Pid is -1 and ignored).
type Decision struct {
	Pid   int  `json:"pid"`
	Crash bool `json:"crash,omitempty"`
}

// String renders the decision compactly ("p1" or "CRASH").
func (d Decision) String() string {
	if d.Crash {
		return "CRASH"
	}
	return fmt.Sprintf("p%d", d.Pid)
}

// parkKind classifies why a process handed control back to the scheduler.
type parkKind int

const (
	// parkOpStart: the process is about to start the next operation of its
	// program. Nothing shared has been touched for that operation yet.
	parkOpStart parkKind = iota + 1
	// parkPrimitive: the process is inside Ctx.pre, immediately before
	// executing one shared-memory primitive.
	parkPrimitive
)

// parkInfo is what a process reports when parking.
type parkInfo struct {
	kind parkKind
	op   nvm.OpKind // parkPrimitive: the pending primitive's kind
	cell int        // parkPrimitive: the pending primitive's cell identity
}

// parkView is the scheduler's snapshot of a parked process, kept in choice
// points for the sleep-set independence checks.
type parkView struct {
	atOpStart bool
	cell      int
	load      bool
}

func (i parkInfo) view() parkView {
	return parkView{atOpStart: i.kind == parkOpStart, cell: i.cell, load: i.op == nvm.KindLoad}
}

// stepInfo is the observed effect of one applied Decision, used to decide
// independence when filtering sleep sets. It is known only after the step
// ran: whether history events were emitted cannot be predicted beforehand.
type stepInfo struct {
	crash       bool
	fromOpStart bool // the step ran from an op-start park (no primitive executed)
	emitted     bool // the step appended history events
	cell        int  // the executed primitive's cell (parkPrimitive steps)
	load        bool // the executed primitive was a load
}

// indep reports whether a sleeping process's pending step s commutes with
// the just-executed step c — i.e. running them in either order yields the
// same memory state, the same history, and the same continuations. The
// relation is deliberately conservative:
//
//   - a crash is dependent with everything (it kills every in-flight
//     attempt and reverts shared-cache state);
//   - a step that emitted history events is dependent with everything we
//     cannot see inside (swapping a Return past an Invoke changes the
//     real-time order the linearizability check enforces);
//   - a step from an op-start park executes no primitive — its only
//     possible effect is one Invoke event — so it commutes with any
//     non-crash, non-emitting step, in both roles;
//   - otherwise two primitives commute iff they touch different cells or
//     are both loads.
func indep(s parkView, c stepInfo) bool {
	if c.crash || c.emitted {
		return false
	}
	if c.fromOpStart || s.atOpStart {
		return true
	}
	if s.cell != c.cell {
		return true
	}
	return s.load && c.load
}

// abortExec is the panic payload used to unwind aborted processes.
type abortExec struct{}

// schedPlan is the nvm.CrashPlan armed for one process on the instance's
// system, so every attempt of every operation consults it.
// It injects no crash itself (crashes are injected by the scheduler calling
// Instance.Crash between steps); its job is to park the process at every
// primitive so the step becomes a visible scheduling point.
type schedPlan struct {
	yield func(parkInfo) bool // the process coroutine's yield
}

// CrashBefore implements nvm.CrashPlan.
func (p *schedPlan) CrashBefore(ctx *nvm.Ctx, kind nvm.OpKind) bool {
	p.park(parkInfo{kind: parkPrimitive, op: kind, cell: ctx.CellID()})
	return false
}

// park hands control to the scheduler and returns when resumed. A process
// the scheduler stopped instead unwinds with an abortExec panic.
func (p *schedPlan) park(info parkInfo) {
	if !p.yield(info) {
		panic(abortExec{})
	}
}

// execution drives one run of a Program over a fresh Instance.
type execution struct {
	inst *Instance
	// crashAnywhere: the memory model keeps volatile shared-cache state, so
	// a crash between operations has an effect of its own (reverting
	// unflushed stores) and must be explored even while no primitive is in
	// flight. Private-cache instances skip those decisions: with nothing
	// volatile, such a crash is indistinguishable from one a step earlier.
	crashAnywhere bool

	next []func() (parkInfo, bool) // per pid: run the process to its next park
	stop []func()                  // per pid: unwind the process

	parked []parkInfo // per pid; kind 0: running or done (see isParked)
	done   int
	failed error // first process panic, if any

	lastPid      int // previously stepped process, -1 after a crash / at start
	lastWasCrash bool
	crashes      int
	steps        int
}

// newExecution builds a fresh instance and starts one coroutine per
// process; on return every process is parked (or done, for empty programs).
func newExecution(inst *Instance, prog Program) *execution {
	e := &execution{
		inst:          inst,
		crashAnywhere: inst.Sys.Space().Model() != nvm.ModelPrivateCache,
		next:          make([]func() (parkInfo, bool), len(prog)),
		stop:          make([]func(), len(prog)),
		parked:        make([]parkInfo, len(prog)),
		lastPid:       -1,
	}
	for pid, ops := range prog {
		plan := &schedPlan{}
		inst.Sys.Arm(pid, plan)
		e.next[pid], e.stop[pid] = iter.Pull(func(yield func(parkInfo) bool) {
			plan.yield = yield
			e.runProc(pid, ops, plan)
		})
		e.resume(pid)
	}
	return e
}

// runProc executes one process's program, parking before each operation.
// A panic other than an abort is recorded as the execution's failure; either
// way the process ends, and its coroutine with it.
func (e *execution) runProc(pid int, ops []spec.Operation, plan *schedPlan) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortExec); !ok && e.failed == nil {
				e.failed = fmt.Errorf("explore: process %d panicked: %v", pid, r)
			}
		}
	}()
	for _, op := range ops {
		plan.park(parkInfo{kind: parkOpStart})
		e.inst.Run(pid, op)
	}
}

// resume runs pid until it parks again or finishes.
func (e *execution) resume(pid int) {
	var ok bool
	if e.parked[pid], ok = e.next[pid](); !ok {
		e.done++
	}
}

// isParked reports whether pid names a process waiting to be resumed.
func (e *execution) isParked(pid int) bool {
	return pid >= 0 && pid < len(e.parked) && e.parked[pid].kind != 0
}

// finished reports whether every process has completed its program.
func (e *execution) finished() bool { return e.done == len(e.parked) }

// apply performs one Decision and returns its observed effects. The caller
// must only pass applicable decisions: a Step of a parked pid, or a Crash.
func (e *execution) apply(d Decision) (stepInfo, error) {
	e.steps++
	if d.Crash {
		if e.finished() {
			return stepInfo{}, fmt.Errorf("explore: crash decision with no process parked")
		}
		e.inst.Crash()
		e.crashes++
		e.lastPid = -1
		e.lastWasCrash = true
		return stepInfo{crash: true}, nil
	}
	if !e.isParked(d.Pid) {
		return stepInfo{}, fmt.Errorf("explore: decision %s targets a process that is not parked", d)
	}
	info := e.parked[d.Pid]
	before := e.inst.Sys.Log().Appended()
	e.resume(d.Pid)
	e.lastPid = d.Pid
	e.lastWasCrash = false
	if e.failed != nil {
		return stepInfo{}, e.failed
	}
	return stepInfo{
		fromOpStart: info.kind == parkOpStart,
		emitted:     e.inst.Sys.Log().Appended() > before,
		cell:        info.cell,
		load:        info.op == nvm.KindLoad,
	}, nil
}

// abort unwinds every still-parked process, so no coroutine of the
// execution outlives it. Stopping a finished process does nothing.
func (e *execution) abort() {
	for _, stop := range e.stop {
		stop()
	}
}
