// Package explore is a deterministic-schedule model checker for the
// repository's detectable objects: it exhaustively enumerates process
// interleavings at shared-memory-primitive granularity, crossed with
// system-wide crash points, and checks every explored execution's complete
// history for durable linearizability with detectability accounting
// (internal/linearize).
//
// Where the stress suites (-race loops, crash storms, the loadgen verifier)
// sample the schedule space, the explorer walks it: a seeded bug that needs
// one specific interleaving plus a crash at one specific step is found, and
// reported as a minimal, replayable Trace that reproduces the violation
// byte-for-byte (Replay). It checks the implementations that ship —
// goroutines, the runtime.Execute protocol, recovery re-entries, composed
// objects — by driving them under a controlled scheduler (see sched.go),
// and the paper's lower-bound tables (cmd/bounds) are computed the same
// way: ConfigCount for Theorem 1, runtime.MutantSkipReset for Theorem 2.
//
// Tractability comes from two classic model-checking techniques:
//
//   - Preemption bounding (CHESS): schedules are explored in rounds of
//     increasing preemption count — switching away from a process that
//     could continue costs one preemption; switching after it finished, or
//     after a crash, is free. Bugs reachable with few preemptions (almost
//     all of them, empirically) are found first, and the first
//     counterexample found is minimal in preemptions.
//   - Sleep sets (Godefroid): after a branch explores decision d, sibling
//     branches keep d asleep until some step dependent with d's pending
//     primitive executes. Independence is judged on observed effects: two
//     primitives commute when they target different cells (Ctx.CellID) or
//     are both loads, and steps that emitted history events never commute
//     (the real-time order of events is what the checker enforces). With
//     an unbounded preemption budget the pruning is sound: every pruned
//     schedule is Mazurkiewicz-equivalent to an explored one, and the
//     linearizability verdict is invariant within an equivalence class.
//
// The two techniques do not compose soundly: preemption count is not
// invariant under Mazurkiewicz equivalence, so with a finite bound a sleep
// set could prune a within-bound schedule whose explored representative
// lies beyond the bound. Run therefore applies sleep sets only when
// MaxPreemptions is -1 (deepening until exhausted, where the final round is
// sound); under a finite bound every branch within the bound is explored,
// so Complete means literally every such schedule ran. At low bounds the
// preemption pruning dominates anyway, making the forgone sleep pruning
// cheap.
package explore

import (
	"fmt"
	"time"

	"detectable/internal/linearize"
)

// Options bound an exploration.
type Options struct {
	// MaxCrashes is the per-execution budget of crash decisions (default 0;
	// 1 covers "every crash point" of the single-failure analyses).
	MaxCrashes int
	// MaxPreemptions caps the iterative-deepening preemption bound.
	// -1 keeps deepening until a round completes with no preemption-pruned
	// branches, i.e. the schedule space is fully explored (sleep-set
	// pruning applies). A finite bound explores every schedule within it —
	// sleep sets are off, since they are unsound under a bound (see the
	// package comment).
	MaxPreemptions int
	// MaxExecutions caps the total number of executions (0 = unlimited).
	MaxExecutions int
	// Budget caps wall-clock time (0 = unlimited).
	Budget time.Duration
	// StepCap aborts any single execution exceeding this many decisions,
	// as a livelock guard (default 4096).
	StepCap int
	// DisableSleep turns the sleep-set pruning off even for unbounded
	// (MaxPreemptions -1) searches. It exists to validate the pruning: a
	// violation found without sleep sets must also be found with them.
	// Finite-bound searches never use sleep sets regardless (see
	// MaxPreemptions).
	DisableSleep bool
}

// Stats counts the work an exploration performed.
type Stats struct {
	// Executions completed (including sleep-set cutoffs).
	Executions int
	// Cutoffs counts executions abandoned because every enabled decision
	// was asleep — each is a certificate that the remaining subtree is
	// equivalent to already-explored schedules.
	Cutoffs int
	// SleepSkips and PreemptSkips count pruned branch alternatives.
	SleepSkips, PreemptSkips int
	// Passes is the number of deepening rounds run; Bound is the last
	// round's preemption bound.
	Passes, Bound int
}

// Result is the outcome of one Run.
type Result struct {
	Stats Stats
	// Complete: the search ran to the end of its final round (it was not
	// stopped by Budget or MaxExecutions). Under a finite MaxPreemptions
	// this is exhaustive at the bound: every schedule within MaxCrashes
	// and the preemption bound was executed.
	Complete bool
	// Exhausted: Complete, and the final round pruned nothing on the
	// preemption bound — every schedule within MaxCrashes was explored up
	// to equivalence.
	Exhausted bool
	// Counterexample is a replayable trace of a non-linearizable (or
	// otherwise inexplicable) execution; nil if none was found.
	Counterexample *Trace
	// Err reports infrastructure failures (step-cap livelock, process
	// panic, replay divergence) — distinct from a counterexample.
	Err     error
	Elapsed time.Duration
}

// point is one choice point of the DFS: the decisions enabled there, which
// one is currently being explored, and the sleep set accumulated from
// already-explored siblings and inherited from the parent.
type point struct {
	options []Decision
	costs   []int // preemption cost per option
	idx     int
	sleep   map[int]parkView // sleeping Step decisions, by pid
	parked  map[int]parkView // snapshot of parked processes
	preempt int              // preemptions spent on the path to this point
}

// newPoint snapshots the execution's scheduling state into a choice point.
// A nil inherited sleep set means sleep sets are off: nothing then reads
// the snapshot of parked processes, and none is taken.
func newPoint(e *execution, inherited map[int]parkView, preempt, maxCrashes int) *point {
	pt := &point{sleep: inherited, preempt: preempt}
	if inherited != nil {
		pt.parked = make(map[int]parkView, len(e.parked))
	}
	// Continuation first (free), then switches in pid order, then a crash.
	contParked := e.isParked(e.lastPid)
	if contParked {
		pt.options = append(pt.options, Decision{Pid: e.lastPid})
		pt.costs = append(pt.costs, 0)
	}
	midOp := false
	for pid, info := range e.parked {
		if !e.isParked(pid) {
			continue
		}
		if pt.parked != nil {
			pt.parked[pid] = info.view()
		}
		midOp = midOp || info.kind == parkPrimitive
		if pid == e.lastPid {
			continue
		}
		pt.options = append(pt.options, Decision{Pid: pid})
		cost := 0
		if contParked {
			cost = 1 // leaving a runnable process is a preemption
		}
		pt.costs = append(pt.costs, cost)
	}
	// A crash is offered while some operation is in flight — or, under a
	// shared-cache memory model, at any point after the first step, since
	// reverting unflushed stores is an effect of its own (see
	// execution.crashAnywhere). Never twice in a row: back-to-back crashes
	// collapse to one.
	if e.crashes < maxCrashes && !e.lastWasCrash && (midOp || (e.crashAnywhere && e.steps > 0)) {
		pt.options = append(pt.options, Decision{Pid: -1, Crash: true})
		pt.costs = append(pt.costs, 0)
	}
	return pt
}

// seek advances idx to the next viable option at or after from, counting
// skips into st. It reports whether one was found.
func (pt *point) seek(from, bound int, st *Stats) bool {
	for i := from; i < len(pt.options); i++ {
		d := pt.options[i]
		if !d.Crash {
			if _, asleep := pt.sleep[d.Pid]; asleep {
				st.SleepSkips++
				continue
			}
		}
		if pt.preempt+pt.costs[i] > bound {
			st.PreemptSkips++
			continue
		}
		pt.idx = i
		return true
	}
	return false
}

// filterSleep propagates a sleep set into the child reached via a step with
// observed effects c: sleeping decisions dependent with c wake up.
func filterSleep(sleep map[int]parkView, c stepInfo) map[int]parkView {
	out := make(map[int]parkView, len(sleep))
	for pid, v := range sleep {
		if indep(v, c) {
			out[pid] = v
		}
	}
	return out
}

// Run explores prog on h under opt.
func Run(h Harness, prog Program, opt Options) Result {
	if opt.StepCap <= 0 {
		opt.StepCap = 4096
	}
	var res Result
	start := time.Now()
	var deadline time.Time
	if opt.Budget > 0 {
		deadline = start.Add(opt.Budget)
	}
	// Sleep sets only under unbounded deepening, where they are sound.
	sleepOn := opt.MaxPreemptions < 0 && !opt.DisableSleep
	r := &runner{h: h, prog: prog, opt: opt, sleepOn: sleepOn, deadline: deadline, res: &res}
	for bound := 0; ; bound++ {
		res.Stats.Passes++
		res.Stats.Bound = bound
		skipsBefore := res.Stats.PreemptSkips
		stopped := r.pass(bound)
		if res.Counterexample != nil || res.Err != nil {
			break
		}
		if stopped {
			break // budget or execution cap: incomplete
		}
		if res.Stats.PreemptSkips == skipsBefore {
			// The bound never pruned a branch: the space is exhausted.
			res.Complete, res.Exhausted = true, true
			break
		}
		if opt.MaxPreemptions >= 0 && bound >= opt.MaxPreemptions {
			res.Complete = true // complete at the requested bound
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

type runner struct {
	h        Harness
	prog     Program
	opt      Options
	sleepOn  bool
	deadline time.Time
	res      *Result
	observed bool // an Instance's Observe asked to stop
}

func (r *runner) stopNow() bool {
	if r.observed || r.opt.MaxExecutions > 0 && r.res.Stats.Executions >= r.opt.MaxExecutions {
		return true
	}
	return !r.deadline.IsZero() && time.Now().After(r.deadline)
}

// pass runs one complete DFS at the given preemption bound. It returns true
// if it was stopped by the budget before finishing.
func (r *runner) pass(bound int) bool {
	var stack []*point
	for {
		if r.stopNow() {
			return true
		}
		r.runOne(&stack, bound)
		if r.res.Counterexample != nil || r.res.Err != nil {
			return false
		}
		if r.observed {
			return true // stopped mid-execution: the pass is not finished
		}
		// Backtrack to the deepest point with an unexplored viable sibling.
		advanced := false
		for len(stack) > 0 {
			pt := stack[len(stack)-1]
			if d := pt.options[pt.idx]; !d.Crash && r.sleepOn {
				// The explored decision goes to sleep for later siblings.
				pt.sleep[d.Pid] = pt.parked[d.Pid]
			}
			if pt.seek(pt.idx+1, bound, &r.res.Stats) {
				advanced = true
				break
			}
			stack = stack[:len(stack)-1]
		}
		if !advanced {
			return false // pass finished
		}
	}
}

// runOne executes one schedule: it replays the decisions pinned by stack,
// then extends with fresh choice points (first-viable policy) until the
// execution finishes, is cut off by sleep sets, or fails. On normal
// completion it checks the recorded history.
func (r *runner) runOne(stack *[]*point, bound int) {
	r.res.Stats.Executions++
	exec := newExecution(r.h.Build(len(r.prog)), r.prog)
	var (
		decisions []Decision
		lastInfo  stepInfo
		depth     int
	)
	fail := func(err error) {
		exec.abort()
		r.res.Err = fmt.Errorf("%w\ntrace so far: %v", err, decisions)
	}
	for !exec.finished() {
		if exec.steps >= r.opt.StepCap {
			fail(fmt.Errorf("explore: execution exceeded the %d-step cap (livelock?)", r.opt.StepCap))
			return
		}
		var pt *point
		if depth < len(*stack) {
			pt = (*stack)[depth]
		} else {
			var inherited map[int]parkView
			if r.sleepOn {
				inherited = map[int]parkView{}
				if depth > 0 {
					inherited = filterSleep((*stack)[depth-1].sleep, lastInfo)
				}
			}
			pre := 0
			if depth > 0 {
				parent := (*stack)[depth-1]
				pre = parent.preempt + parent.costs[parent.idx]
			}
			pt = newPoint(exec, inherited, pre, r.opt.MaxCrashes)
			if !pt.seek(0, bound, &r.res.Stats) {
				// Every enabled decision is asleep: this whole subtree is
				// equivalent to schedules already explored.
				r.res.Stats.Cutoffs++
				exec.abort()
				return
			}
			*stack = append(*stack, pt)
		}
		d := pt.options[pt.idx]
		info, err := exec.apply(d)
		if err != nil {
			fail(err)
			return
		}
		decisions = append(decisions, d)
		lastInfo = info
		depth++
		if obs := exec.inst.Observe; obs != nil && obs() {
			r.observed = true
			exec.abort()
			return
		}
	}
	if depth < len(*stack) {
		fail(fmt.Errorf("explore: execution finished at depth %d but the replay stack holds %d points (nondeterminism)", depth, len(*stack)))
		return
	}
	// The execution completed: check its full history.
	events := exec.inst.Sys.Log().Events()
	recs, _, err := linearize.Collect(events)
	if err != nil {
		fail(fmt.Errorf("explore: malformed history: %w", err))
		return
	}
	if len(recs) > linearize.MaxOps {
		fail(fmt.Errorf("explore: %d operations exceed the checker's %d-op limit; shrink the program", len(recs), linearize.MaxOps))
		return
	}
	if !linearize.Check(exec.inst.Obj, recs) {
		t := &Trace{
			Object:    r.h.Name,
			Procs:     len(r.prog),
			Program:   r.prog,
			Decisions: decisions,
			Note:      fmt.Sprintf("found at preemption bound %d, %d crash(es)", bound, exec.crashes),
		}
		// A counterexample must replay: verify before reporting it, with
		// the harness in hand (custom harnesses may not be registered).
		rr, rerr := ReplayWith(r.h, *t)
		switch {
		case rerr != nil:
			r.res.Err = fmt.Errorf("explore: counterexample failed to replay: %w", rerr)
		case rr.Linearizable:
			r.res.Err = fmt.Errorf("explore: counterexample did not reproduce on replay (nondeterminism)\ntrace: %v", decisions)
		default:
			r.res.Counterexample = t
		}
	}
}
