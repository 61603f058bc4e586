package explore

import (
	"fmt"

	"detectable/internal/nvm"
	"detectable/internal/spec"
)

// This file is the execution engine: it runs one N-process execution of a
// Program under a controlled scheduler, so that the interleaving of shared-
// memory primitives — and the placement of system-wide crashes — is decided
// entirely by an explicit sequence of Decisions instead of by the Go
// scheduler.
//
// Mechanism: each process is armed once on the instance's system
// (runtime.System.Arm) with a per-process schedPlan, and every operation
// runs through the object's own method, the call that ships. Every
// primitive of every attempt goes through Ctx.pre, which consults the plan
// while no cell lock is held, and is otherwise the code an unarmed attempt
// runs. The plan parks the process there — before the primitive executes,
// which is exactly the crash-point granularity of the paper's model — and
// waits for the scheduler to resume it. Processes additionally park once
// before each operation of their program, so invocation logging is
// serialized too. At any instant at most one process goroutine is running;
// everything between two parks happens atomically with respect to the
// other processes, which makes an execution a deterministic function of its
// decision sequence.

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
	// parkDone: the process finished its program (or died; see err).
	parkDone
)

// parkInfo is what a process reports when parking.
type parkInfo struct {
	pid  int
	kind parkKind
	op   nvm.OpKind // parkPrimitive: the pending primitive's kind
	cell int        // parkPrimitive: the pending primitive's cell identity
	err  error      // parkDone: non-nil if the process panicked
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

// resumeMsg is the scheduler→process half of the park handshake.
type resumeMsg int

const (
	resumeGo resumeMsg = iota + 1
	// resumeAbort unwinds the process with an abortExec panic so the
	// scheduler can drain a half-finished execution (budget cutoffs, step
	// caps, internal errors) without leaking goroutines.
	resumeAbort
)

// abortExec is the panic payload used to unwind aborted processes.
type abortExec struct{}

// schedPlan is the nvm.CrashPlan armed for one process on the instance's
// system, so every attempt of every operation consults it.
// It injects no crash itself (crashes are injected by the scheduler calling
// Instance.Crash between steps); its job is to park the process at every
// primitive so the step becomes a visible scheduling point.
type schedPlan struct {
	e   *execution
	pid int
}

// CrashBefore implements nvm.CrashPlan.
func (p *schedPlan) CrashBefore(ctx *nvm.Ctx, kind nvm.OpKind) bool {
	p.e.park(parkInfo{pid: p.pid, kind: parkPrimitive, op: kind, cell: ctx.CellID()})
	return false
}

// execution drives one run of a Program over a fresh Instance.
type execution struct {
	inst  *Instance
	procs int
	// crashAnywhere: the memory model keeps volatile shared-cache state, so
	// a crash between operations has an effect of its own (reverting
	// unflushed stores) and must be explored even while no primitive is in
	// flight. Private-cache instances skip those decisions: with nothing
	// volatile, such a crash is indistinguishable from one a step earlier.
	crashAnywhere bool

	parkedCh chan parkInfo
	resume   []chan resumeMsg

	parked map[int]parkInfo
	done   int
	failed error // first process panic, if any

	lastPid      int // previously stepped process, -1 after a crash / at start
	lastWasCrash bool
	crashes      int
	steps        int
}

// newExecution builds a fresh instance and launches the process goroutines;
// on return every process is parked (or done, for empty programs).
func newExecution(inst *Instance, prog Program) *execution {
	e := &execution{
		inst:          inst,
		procs:         len(prog),
		crashAnywhere: inst.Sys.Space().Model() != nvm.ModelPrivateCache,
		parkedCh:      make(chan parkInfo),
		resume:        make([]chan resumeMsg, len(prog)),
		parked:        make(map[int]parkInfo, len(prog)),
		lastPid:       -1,
	}
	for pid := range prog {
		e.resume[pid] = make(chan resumeMsg)
		inst.Sys.Arm(pid, &schedPlan{e: e, pid: pid})
	}
	for pid, ops := range prog {
		go e.runProc(pid, ops)
	}
	for i := 0; i < e.procs; i++ {
		e.note(<-e.parkedCh)
	}
	return e
}

// runProc executes one process's program, parking before each operation.
func (e *execution) runProc(pid int, ops []spec.Operation) {
	defer func() {
		switch r := recover(); {
		case r == nil:
			e.parkedCh <- parkInfo{pid: pid, kind: parkDone}
		default:
			if _, ok := r.(abortExec); ok {
				e.parkedCh <- parkInfo{pid: pid, kind: parkDone}
				return
			}
			e.parkedCh <- parkInfo{pid: pid, kind: parkDone, err: fmt.Errorf("explore: process %d panicked: %v", pid, r)}
		}
	}()
	for _, op := range ops {
		e.park(parkInfo{pid: pid, kind: parkOpStart})
		e.inst.Run(pid, op)
	}
}

// park hands control to the scheduler and blocks until resumed.
func (e *execution) park(info parkInfo) {
	e.parkedCh <- info
	if <-e.resume[info.pid] == resumeAbort {
		panic(abortExec{})
	}
}

func (e *execution) note(info parkInfo) {
	if info.kind == parkDone {
		e.done++
		if info.err != nil && e.failed == nil {
			e.failed = info.err
		}
		return
	}
	e.parked[info.pid] = info
}

// finished reports whether every process has completed its program.
func (e *execution) finished() bool { return e.done == e.procs }

// apply performs one Decision and returns its observed effects. The caller
// must only pass applicable decisions: a Step of a parked pid, or a Crash.
func (e *execution) apply(d Decision) (stepInfo, error) {
	e.steps++
	if d.Crash {
		if len(e.parked) == 0 {
			return stepInfo{}, fmt.Errorf("explore: crash decision with no process parked")
		}
		e.inst.Crash()
		e.crashes++
		e.lastPid = -1
		e.lastWasCrash = true
		return stepInfo{crash: true}, nil
	}
	info, ok := e.parked[d.Pid]
	if !ok {
		return stepInfo{}, fmt.Errorf("explore: decision %s targets a process that is not parked", d)
	}
	delete(e.parked, d.Pid)
	before := e.inst.Sys.Log().Appended()
	e.resume[d.Pid] <- resumeGo
	e.note(<-e.parkedCh) // only d.Pid can send: all other processes are parked or done
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

// abort unwinds every still-parked process so the execution's goroutines
// exit, leaving nothing blocked on the scheduler.
func (e *execution) abort() {
	for pid := range e.parked {
		e.resume[pid] <- resumeAbort
		e.note(<-e.parkedCh)
	}
	e.parked = nil
}
