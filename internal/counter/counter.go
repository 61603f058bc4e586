// Package counter builds recoverable exactly-once counters on top of the
// paper's bounded-space detectable CAS (internal/rcas), demonstrating the
// composability that detectability buys: because every crashed CAS reports
// either its response or a definite fail, the client retry loop can
// re-invoke on fail without ever double-applying an increment.
//
// This is exactly the "client operation can choose whether or not to
// re-invoke" pattern from the paper's discussion of detectability vs NRL.
// Without detectability (e.g. on a plain CAS), a crash mid-increment
// leaves the client unable to retry safely: the increment may or may not
// have landed.
package counter

import (
	"detectable/internal/nvm"
	"detectable/internal/rcas"
	"detectable/internal/runtime"
)

// Counter is an N-process recoverable counter with exactly-once increments.
type Counter struct {
	cas *rcas.CAS[int]
}

// New allocates a counter (initially 0) in sys's memory space.
func New(sys *runtime.System) *Counter {
	return &Counter{cas: rcas.NewInt(sys, 0)}
}

// Inc increments the counter exactly once as process pid and returns the
// new value. Crashes during the underlying CAS operations are absorbed by
// their recovery functions; a fail verdict (not linearized) triggers a
// retry, a true verdict ends the operation, and a false verdict means the
// counter moved — reread and retry. plans optionally injects deterministic
// crashes into the successive CAS invocations (one plan per invocation).
func (c *Counter) Inc(pid int, plans ...nvm.CrashPlan) int {
	attempt := 0
	for {
		cur := c.read(pid)
		var plan nvm.CrashPlan
		if attempt < len(plans) {
			plan = plans[attempt]
		}
		attempt++
		out := c.cas.Cas(pid, cur, cur+1, plan)
		if out.Status.Linearized() && out.Resp {
			return cur + 1
		}
		// StatusFailed / StatusNotInvoked: not linearized, safe to retry.
		// Linearized false: lost a race, reread and retry.
	}
}

// Value returns the counter's current value as observed by pid.
func (c *Counter) Value(pid int) int { return c.read(pid) }

func (c *Counter) read(pid int) int {
	for {
		out := c.cas.Read(pid)
		if out.Status.Linearized() {
			return out.Resp
		}
	}
}

// FetchAdd is an N-process recoverable fetch-and-add with exactly-once
// addition, built the same way.
type FetchAdd struct {
	cas *rcas.CAS[int]
}

// NewFetchAdd allocates a fetch-and-add object (initially 0).
func NewFetchAdd(sys *runtime.System) *FetchAdd {
	return &FetchAdd{cas: rcas.NewInt(sys, 0)}
}

// Add atomically adds delta exactly once as process pid and returns the
// previous value.
func (f *FetchAdd) Add(pid, delta int, plans ...nvm.CrashPlan) int {
	attempt := 0
	for {
		var out runtime.Outcome[int]
		for {
			out = f.cas.Read(pid)
			if out.Status.Linearized() {
				break
			}
		}
		cur := out.Resp
		var plan nvm.CrashPlan
		if attempt < len(plans) {
			plan = plans[attempt]
		}
		attempt++
		res := f.cas.Cas(pid, cur, cur+delta, plan)
		if res.Status.Linearized() && res.Resp {
			return cur
		}
	}
}
