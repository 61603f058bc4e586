// Package nrl applies the transformation sketched in Section 6 of the
// paper: an implementation satisfying durable linearizability AND
// detectability becomes one satisfying nesting-safe recoverable
// linearizability (NRL, Attiya et al. PODC 2018) by having the recovery
// path re-invoke the operation instead of surfacing the fail verdict.
//
// Under NRL every operation eventually completes with a linearized
// response — the client never sees fail — at the price of giving up the
// client's freedom to choose whether to re-invoke (the flexibility the
// paper highlights as detectability's advantage).
package nrl

import (
	"detectable/internal/rcas"
	"detectable/internal/runtime"
	"detectable/internal/rw"
)

// Register is an NRL read/write register over the paper's Algorithm 1:
// operations always complete with a linearized response, re-invoking
// internally when a crash left the previous attempt un-linearized.
type Register struct {
	sys   *runtime.System
	inner rw.Register
}

// NewRegister allocates an NRL register initialized to vinit.
func NewRegister(sys *runtime.System, vinit int) *Register {
	return &Register{sys: sys, inner: rw.NewInt(sys, vinit)}
}

// Write performs an always-completing write as process pid, returning the
// number of invocations used (≥ 1; > 1 means crashes forced re-invocation).
func (r *Register) Write(pid, val int) int {
	_, invocations := runtime.ExecuteNRL(r.sys, pid, func() runtime.Op[int] {
		return r.inner.WriteOp(pid, val)
	})
	return invocations
}

// Read performs an always-completing read as process pid.
func (r *Register) Read(pid int) int {
	resp, _ := runtime.ExecuteNRL(r.sys, pid, func() runtime.Op[int] {
		return r.inner.ReadOp(pid)
	})
	return resp
}

// Peek returns the register's current value without a Ctx, for tests.
func (r *Register) Peek() int { return r.inner.PeekTriple().Val }

// CAS is an NRL compare-and-swap over the paper's Algorithm 2.
//
// Note the semantic subtlety the paper's NRL discussion implies: on a fail
// verdict the operation is re-invoked, and the re-invocation evaluates the
// expected value against the CURRENT state — exactly as if the original
// invocation had been delayed past the crash. Linearizability is
// preserved because the failed attempt had no effect.
type CAS struct {
	sys   *runtime.System
	inner *rcas.CAS[int]
}

// NewCAS allocates an NRL CAS object initialized to vinit.
func NewCAS(sys *runtime.System, vinit int) *CAS {
	return &CAS{sys: sys, inner: rcas.NewInt(sys, vinit)}
}

// Cas performs an always-completing compare-and-swap as process pid,
// returning the response and the number of invocations used.
func (c *CAS) Cas(pid, old, new int) (bool, int) {
	return runtime.ExecuteNRL(c.sys, pid, func() runtime.Op[bool] {
		return c.inner.CasOp(pid, old, new)
	})
}

// Read performs an always-completing read as process pid.
func (c *CAS) Read(pid int) int {
	resp, _ := runtime.ExecuteNRL(c.sys, pid, func() runtime.Op[int] {
		return c.inner.ReadOp(pid)
	})
	return resp
}

// Peek returns the object's current value without a Ctx, for tests.
func (c *CAS) Peek() int { return c.inner.PeekPair().Val }
