package baseline

import (
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// SeqCAS is the unbounded-space detectable CAS object in the style of
// Ben-David et al. (SPAA 2019). C holds a tagged value ⟨val, p, seq⟩. A
// CASer that read tag ⟨r, sr⟩ records it in its help slot help[pid][r]
// before attempting the swap; if the swap succeeds, process r can later
// find the evidence that its CAS seq sr had been installed (and was then
// overwritten). Recovery for p's CAS with sequence s:
//
//   - C's tag is ⟨p, s⟩               → the CAS succeeded;
//   - some help[q][p] records s       → succeeded (and was overwritten);
//   - C unchanged across a re-check   → the CAS never took effect: fail.
//
// The help slots and tags store unbounded sequence numbers — the space cost
// the paper's Algorithm 2 removes.
type SeqCAS[V comparable] struct {
	sys *runtime.System
	n   int
	enc func(V) int

	c nvm.CASRegister[Tagged[V]]
	// help[q][r]: the seq of r's value that q was about to overwrite.
	help [][]nvm.CASRegister[uint64]
	seq  []nvm.CASRegister[uint64]

	cAnn []*runtime.Ann[bool]
	rAnn []*runtime.Ann[V]
}

// NewSeqCAS allocates the CAS object initialized to vinit. The initial
// value carries tag ⟨0, 0⟩; help slots start at a sentinel that matches no
// real sequence number (sequence numbers start at 1).
func NewSeqCAS[V comparable](sys *runtime.System, vinit V, enc func(V) int) *SeqCAS[V] {
	sp := sys.Space()
	n := sys.N()
	o := &SeqCAS[V]{
		sys: sys,
		n:   n,
		enc: enc,
		c:   nvm.NewWord(sp, Tagged[V]{Val: vinit}),
	}
	o.help = make([][]nvm.CASRegister[uint64], n)
	for q := 0; q < n; q++ {
		o.help[q] = make([]nvm.CASRegister[uint64], n)
		for r := 0; r < n; r++ {
			o.help[q][r] = nvm.NewWord(sp, uint64(0))
		}
	}
	for p := 0; p < n; p++ {
		o.seq = append(o.seq, nvm.NewWord(sp, uint64(0)))
		o.cAnn = append(o.cAnn, runtime.NewAnn[bool](sp))
		o.rAnn = append(o.rAnn, runtime.NewAnn[V](sp))
	}
	return o
}

// Cas performs a detectable Cas(old, new) as process pid.
func (o *SeqCAS[V]) Cas(pid int, old, new V, plans ...nvm.CrashPlan) runtime.Outcome[bool] {
	return runtime.Execute(o.sys, pid, o.CasOp(pid, old, new), plans...)
}

// Read performs a detectable Read() as process pid.
func (o *SeqCAS[V]) Read(pid int, plans ...nvm.CrashPlan) runtime.Outcome[V] {
	return runtime.Execute(o.sys, pid, o.ReadOp(pid), plans...)
}

// CasOp builds the recoverable Cas instance for pid.
func (o *SeqCAS[V]) CasOp(pid int, old, new V) runtime.Op[bool] {
	ann := o.cAnn[pid]
	return runtime.Op[bool]{
		Desc:     spec.NewOp(spec.MethodCAS, o.enc(old), o.enc(new)),
		Announce: func(ctx *nvm.Ctx) { ann.Announce(ctx, "cas") },
		Body: func(ctx *nvm.Ctx) bool {
			s := o.seq[pid].Load(ctx) + 1
			o.seq[pid].Store(ctx, s) // persist fresh sequence number
			cur := o.c.Load(ctx)
			for cur.Val == old {
				// Help the current tag's owner detect a future overwrite.
				o.help[pid][cur.P].Store(ctx, cur.Seq)
				ann.SetCP(ctx, 1)
				if o.c.CompareAndSwap(ctx, cur, Tagged[V]{Val: new, P: pid, Seq: s}) {
					ann.SetResult(ctx, true)
					return true
				}
				cur = o.c.Load(ctx) // a swap that lost only to a re-tag of old must retry
			}
			ann.SetResult(ctx, false)
			return false
		},
		Recover: func(ctx *nvm.Ctx) (bool, bool) {
			if r := ann.Result(ctx); r.Set {
				return r.Val, true
			}
			if ann.GetCP(ctx) == 0 {
				return false, false
			}
			s := o.seq[pid].Load(ctx)
			for {
				before := o.c.Load(ctx)
				if before.P == pid && before.Seq == s {
					ann.SetResult(ctx, true)
					return true, true
				}
				for q := 0; q < o.n; q++ {
					if o.help[q][pid].Load(ctx) == s {
						ann.SetResult(ctx, true)
						return true, true
					}
				}
				// No evidence. If C is stable across the scan, our value is
				// neither installed nor was it ever observed: the CAS did
				// not take effect.
				if o.c.Load(ctx) == before {
					return false, false
				}
			}
		},
		Encode: runtime.EncodeBool,
	}
}

// ReadOp builds the recoverable Read instance for pid.
func (o *SeqCAS[V]) ReadOp(pid int) runtime.Op[V] {
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

// MaxSeq returns the largest sequence number issued so far (the unbounded
// space growth measure).
func (o *SeqCAS[V]) MaxSeq() uint64 {
	var best uint64
	for _, c := range o.seq {
		if v := c.Peek(); v > best {
			best = v
		}
	}
	return best
}

// PeekVal returns the object's current value without a Ctx, for tests.
func (o *SeqCAS[V]) PeekVal() V { return o.c.Peek().Val }
