// Package rcas implements Algorithm 2 of the paper: the first wait-free
// bounded-space detectable CAS object.
//
// The object's entire shared state is a single cell C holding a pair
// ⟨val, vec⟩: the application value and an N-bit vector with one bit per
// process. A Cas(old, new) by process p that is about to attempt the swap
// first persists the flipped value of its own bit (RDp, line 33) and a
// checkpoint (line 34), then performs one atomic CAS that simultaneously
// installs the new value and flips vec[p] (line 35).
//
// Detectability rests on the invariant proved in Lemma 2: p is the only
// process that ever changes vec[p], it changes it exactly on p's successful
// CAS, and the bit stays flipped until p's next successful CAS. Upon
// recovery, "vec[p] == RDp" therefore certifies that the crashed CAS
// succeeded (return true); otherwise it either failed or never executed
// (return fail). A Cas(x, x) succeeds by reading x and writes nothing:
// flipping its bit would fail a concurrent Cas(x, y) on the vector alone.
//
// The object uses Θ(N) shared bits beyond the value — which Theorem 1
// proves asymptotically optimal; explore.ConfigCount counts the 2^N
// configurations this object reaches.
package rcas

import (
	"fmt"

	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// Pair is the content of the shared cell C: the application value and the
// N-bit per-process flip vector.
type Pair[V comparable] struct {
	Val V
	Vec uint64
}

// Bit reports vec[p].
func (pr Pair[V]) Bit(p int) bool { return pr.Vec>>uint(p)&1 == 1 }

// CAS is an N-process detectable compare-and-swap object over value domain
// V. All exported methods are safe for concurrent use by distinct
// processes; a single process must not run two operations concurrently.
type CAS[V comparable] struct {
	sys *runtime.System
	enc func(V) int

	// c is the shared cell C = ⟨val, vec⟩, initially ⟨vinit, 0…0⟩.
	c nvm.CASRegister[Pair[V]]
	// rd[p] is p's private non-volatile recovery bit: the flipped value of
	// vec[p] persisted immediately before the CAS attempt.
	rd []nvm.CASRegister[bool]

	cAnn []*runtime.Ann[bool]
	rAnn []*runtime.Ann[V]

	// Cached per-process operation closures: the hot path builds no
	// closures. casArgs[p] stages the (old, new) arguments of p's pending
	// Cas — volatile helper state the recovery function never reads.
	casArgs  []casArg[V]
	casAnnFn []func(*nvm.Ctx)
	casBodFn []func(*nvm.Ctx) bool
	casRecFn []func(*nvm.Ctx) (bool, bool)
	readOps  []runtime.Op[V]
}

type casArg[V comparable] struct{ old, new V }

// New allocates a detectable CAS object in sys's memory space, initialized
// to vinit. enc encodes values for history logging. New panics if sys has
// more than 64 processes (the flip vector is packed in a uint64; the paper
// likewise packs it alongside the value in a single variable).
func New[V comparable](sys *runtime.System, vinit V, enc func(V) int) *CAS[V] {
	n := sys.N()
	if n > 64 {
		panic(fmt.Sprintf("rcas: %d processes exceed the 64-bit flip vector", n))
	}
	sp := sys.Space()
	o := &CAS[V]{
		sys: sys,
		enc: enc,
		c:   nvm.NewWord(sp, Pair[V]{Val: vinit}),
	}
	for p := 0; p < n; p++ {
		o.rd = append(o.rd, nvm.NewWord(sp, false))
		o.cAnn = append(o.cAnn, runtime.NewAnn[bool](sp))
		o.rAnn = append(o.rAnn, runtime.NewAnn[V](sp))
	}
	o.casArgs = make([]casArg[V], n)
	for p := 0; p < n; p++ {
		o.casAnnFn = append(o.casAnnFn, o.makeCasAnnounce(p))
		o.casBodFn = append(o.casBodFn, o.makeCasBody(p))
		o.casRecFn = append(o.casRecFn, o.makeCasRecover(p))
		o.readOps = append(o.readOps, o.makeReadOp(p))
	}
	return o
}

// NewInt allocates a detectable CAS object over int values.
func NewInt(sys *runtime.System, vinit int) *CAS[int] {
	return New(sys, vinit, runtime.EncodeInt)
}

// Cas performs a detectable Cas(old, new) as process pid, following the
// crash-recovery protocol. plans optionally inject deterministic crashes.
func (o *CAS[V]) Cas(pid int, old, new V, plans ...nvm.CrashPlan) runtime.Outcome[bool] {
	return runtime.Execute(o.sys, pid, o.CasOp(pid, old, new), plans...)
}

// Read performs a detectable Read() as process pid.
func (o *CAS[V]) Read(pid int, plans ...nvm.CrashPlan) runtime.Outcome[V] {
	return runtime.Execute(o.sys, pid, o.ReadOp(pid), plans...)
}

// CasOp builds the recoverable Cas operation instance for pid. Exposed so
// schedule-driven tests and composed objects (internal/counter) can run it
// directly. The closures are pre-built per process; (old, new) are staged
// in casArgs[pid], which the body reads once at its start.
func (o *CAS[V]) CasOp(pid int, old, new V) runtime.Op[bool] {
	o.casArgs[pid] = casArg[V]{old: old, new: new}
	return runtime.Op[bool]{
		Desc:     spec.NewOp(spec.MethodCAS, o.enc(old), o.enc(new)),
		Announce: o.casAnnFn[pid],
		Body:     o.casBodFn[pid],
		Recover:  o.casRecFn[pid],
		Encode:   runtime.EncodeBool,
	}
}

func (o *CAS[V]) makeCasAnnounce(pid int) func(*nvm.Ctx) {
	ann := o.cAnn[pid]
	return func(ctx *nvm.Ctx) { ann.Announce(ctx, "cas") }
}

func (o *CAS[V]) makeCasBody(pid int) func(*nvm.Ctx) bool {
	ann := o.cAnn[pid]
	return func(ctx *nvm.Ctx) bool {
		old, new := o.casArgs[pid].old, o.casArgs[pid].new       // staged arguments
		cur := o.c.Load(ctx)                                     // line 28
		if cur.Val != old || old == new && !MutantIdentityFlip { // line 29, and Cas(x, x)
			ann.SetResult(ctx, cur.Val == old) // line 30
			return cur.Val == old              // line 31
		}
		newvec := cur.Vec ^ 1<<uint(pid) // line 32: flip vec[p]
		if !MutantDropRDPersist {
			o.rd[pid].Store(ctx, newvec>>uint(pid)&1 == 1) // line 33
		}
		ann.SetCP(ctx, 1)                                                   // line 34
		res := o.c.CompareAndSwap(ctx, cur, Pair[V]{Val: new, Vec: newvec}) // line 35
		ann.SetResult(ctx, res)                                             // line 36
		return res                                                          // line 37
	}
}

func (o *CAS[V]) makeCasRecover(pid int) func(*nvm.Ctx) (bool, bool) {
	ann := o.cAnn[pid]
	return func(ctx *nvm.Ctx) (bool, bool) {
		if r := ann.Result(ctx); r.Set { // line 38
			return r.Val, true // line 39
		}
		if ann.GetCP(ctx) == 0 { // line 40
			return false, false // line 41
		}
		cur := o.c.Load(ctx)                     // line 42
		if cur.Bit(pid) != o.rd[pid].Load(ctx) { // line 43
			return false, false // line 44: CAS failed or not performed
		}
		ann.SetResult(ctx, true) // line 45: CAS was successful
		return true, true        // line 46
	}
}

// ReadOp returns the recoverable Read operation instance for pid. The
// recovery function re-invokes Read when no response was persisted. Reads
// take no argument, so the whole Op is pre-built per process.
func (o *CAS[V]) ReadOp(pid int) runtime.Op[V] {
	return o.readOps[pid]
}

func (o *CAS[V]) makeReadOp(pid int) runtime.Op[V] {
	ann := o.rAnn[pid]
	body := func(ctx *nvm.Ctx) V {
		cur := o.c.Load(ctx)
		ann.SetResult(ctx, cur.Val)
		return cur.Val
	}
	return runtime.Op[V]{
		Desc:     spec.NewOp(spec.MethodRead),
		Announce: func(ctx *nvm.Ctx) { ann.Announce(ctx, "read") },
		Body:     body,
		Recover: func(ctx *nvm.Ctx) (V, bool) {
			if r := ann.Result(ctx); r.Set {
				return r.Val, true
			}
			return body(ctx), true
		},
		Encode: o.enc,
	}
}

// PeekPair returns C's current pair without a Ctx, for tests and checkers.
func (o *CAS[V]) PeekPair() Pair[V] { return o.c.Peek() }
