package runtime

import (
	"detectable/internal/nvm"
)

// Ann is the per-process non-volatile announcement structure of the paper's
// system model (Section 2). The caller of a recoverable operation writes it
// immediately before invoking the operation:
//
//   - Op names the recoverable operation and its arguments, so post-crash
//     code knows which recovery function to run;
//   - Resp is reset to ⊥ and later holds the operation's persisted
//     response;
//   - CP is reset to 0 and used by the operation/recovery code to record
//     checkpoints in its execution flow.
//
// These caller-side writes are precisely the auxiliary state of
// Definition 1, which Theorem 2 proves necessary for detectable
// implementations of doubly-perturbing objects.
//
// The paper has a single Ann_p per process, written and read by p alone,
// so the three fields are owner-only words (nvm.Private): plain storage,
// each access still one primitive. An object that serves one process at a
// time per pid may allocate one Ann per process for all its instances —
// internal/rw's process table does, one per kv store — or one per
// (process, object) pair; the two are equivalent because a process runs at
// most one recoverable operation at a time and Announce resets Resp and CP
// before every one of them.
type Ann[R comparable] struct {
	// Op holds the announced operation's key ("" when idle).
	Op *nvm.Private[string]
	// Resp holds the persisted response, ⊥ until the operation persists it.
	Resp *nvm.Private[nvm.Maybe[R]]
	// CP is the checkpoint counter.
	CP *nvm.Private[int]
}

// NewAnn allocates an announcement structure in sp.
func NewAnn[R comparable](sp *nvm.Space) *Ann[R] {
	return &Ann[R]{
		Op:   nvm.NewPrivate(sp, ""),
		Resp: nvm.NewPrivate(sp, nvm.None[R]()),
		CP:   nvm.NewPrivate(sp, 0),
	}
}

// Announce performs the caller-side initialization: announce the operation,
// reset the response to ⊥ and the checkpoint to 0. CP is written last so
// that a crash mid-announcement never leaves a fresh checkpoint paired with
// a stale response.
func (a *Ann[R]) Announce(ctx *nvm.Ctx, opKey string) {
	a.Op.Store(ctx, opKey)
	if MutantSkipReset {
		return
	}
	a.Resp.Store(ctx, nvm.None[R]())
	a.CP.Store(ctx, 0)
}

// SetResult persists the operation's response.
func (a *Ann[R]) SetResult(ctx *nvm.Ctx, r R) {
	a.Resp.Store(ctx, nvm.Some(r))
}

// Result reads the persisted response (⊥ if none).
func (a *Ann[R]) Result(ctx *nvm.Ctx) nvm.Maybe[R] {
	return a.Resp.Load(ctx)
}

// SetCP persists checkpoint cp.
func (a *Ann[R]) SetCP(ctx *nvm.Ctx, cp int) {
	a.CP.Store(ctx, cp)
}

// GetCP reads the checkpoint.
func (a *Ann[R]) GetCP(ctx *nvm.Ctx) int {
	return a.CP.Load(ctx)
}
