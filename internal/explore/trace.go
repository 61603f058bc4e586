package explore

import (
	"encoding/json"
	"fmt"
	"strings"

	"detectable/internal/history"
	"detectable/internal/linearize"
)

// Trace is a self-contained, replayable schedule: the harness to rebuild,
// the program each process runs, and the exact decision sequence. A trace
// reported by Run reproduces its violation deterministically under Replay,
// so a counterexample found once in CI can be committed as a permanent
// regression test (see docs/TESTING.md).
type Trace struct {
	Object    string     `json:"object"`
	Procs     int        `json:"procs"`
	Program   Program    `json:"program"`
	Decisions []Decision `json:"decisions"`
	Note      string     `json:"note,omitempty"`
}

// String renders the schedule compactly: "rw 2p: p0 p0 CRASH p1 …".
func (t Trace) String() string {
	parts := make([]string, len(t.Decisions))
	for i, d := range t.Decisions {
		parts[i] = d.String()
	}
	return fmt.Sprintf("%s %dp: %s", t.Object, t.Procs, strings.Join(parts, " "))
}

// UnmarshalTrace decodes a JSON-encoded trace.
func UnmarshalTrace(b []byte) (Trace, error) {
	var t Trace
	if err := json.Unmarshal(b, &t); err != nil {
		return Trace{}, fmt.Errorf("explore: bad trace: %w", err)
	}
	if len(t.Program) != t.Procs {
		return Trace{}, fmt.Errorf("explore: trace declares %d procs but programs for %d", t.Procs, len(t.Program))
	}
	return t, nil
}

// ReplayResult is the outcome of re-executing a trace.
type ReplayResult struct {
	// Linearizable is the checker's verdict on the replayed history.
	Linearizable bool
	// Report is the detectability accounting of the history.
	Report linearize.Report
	// Witness is a legal linearization order when Linearizable.
	Witness []linearize.OpRecord
	// Events is the replayed history, for diagnostics.
	Events []history.Event
}

// Replay re-executes t's schedule on a fresh instance and re-checks the
// recorded history. Executions are a deterministic function of the decision
// sequence, so a trace that witnessed a violation witnesses it again. If
// the trace ends before every process finished (e.g. a hand-shortened
// trace), the remainder runs under the deterministic default policy:
// continue the last process, else the lowest parked pid.
func Replay(t Trace) (ReplayResult, error) {
	h, err := ByName(t.Object)
	if err != nil {
		return ReplayResult{}, err
	}
	return ReplayWith(h, t)
}

// ReplayWith is Replay with an explicit harness, for traces of custom
// harnesses that are not in the registry (e.g. model variants built by
// tests); t.Object is informational only. Run verifies its counterexamples
// through this path, with the very harness that produced them.
func ReplayWith(h Harness, t Trace) (ReplayResult, error) {
	if len(t.Program) != t.Procs {
		return ReplayResult{}, fmt.Errorf("explore: trace declares %d procs but programs for %d", t.Procs, len(t.Program))
	}
	exec := newExecution(h.Build(t.Procs), t.Program)
	const replayCap = 1 << 16
	for i, d := range t.Decisions {
		if exec.finished() {
			exec.abort()
			return ReplayResult{}, fmt.Errorf("explore: decision %d (%s) is past the end of the execution", i, d)
		}
		if _, err := exec.apply(d); err != nil {
			exec.abort()
			return ReplayResult{}, fmt.Errorf("explore: decision %d: %w", i, err)
		}
	}
	for !exec.finished() {
		if exec.steps >= replayCap {
			exec.abort()
			return ReplayResult{}, fmt.Errorf("explore: replay exceeded %d steps (livelock?)", replayCap)
		}
		if _, err := exec.apply(exec.defaultDecision()); err != nil {
			exec.abort()
			return ReplayResult{}, err
		}
	}
	events := exec.inst.Sys.Log().Events()
	ok, witness, rep, err := linearize.ExplainEvents(exec.inst.Obj, events)
	if err != nil {
		return ReplayResult{}, err
	}
	return ReplayResult{Linearizable: ok, Report: rep, Witness: witness, Events: events}, nil
}

// defaultDecision picks the deterministic continuation: the last stepped
// process if still parked, otherwise the lowest parked pid.
func (e *execution) defaultDecision() Decision {
	if e.isParked(e.lastPid) {
		return Decision{Pid: e.lastPid}
	}
	for pid := range e.parked {
		if e.isParked(pid) {
			return Decision{Pid: pid}
		}
	}
	return Decision{Pid: -1}
}
