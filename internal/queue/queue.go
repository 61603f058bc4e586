// Package queue implements a detectable durable FIFO queue in the spirit of
// Friedman, Herlihy, Marathe and Petrank (PPoPP 2018): a Michael-Scott
// linked queue living in simulated NVM, augmented so that the recovery
// function of a crashed enqueue or dequeue can always tell whether the
// operation was linearized.
//
//   - Enqueue detectability: the operation persists the freshly allocated
//     node's identity before attempting to link it; node identities are
//     unique per invocation, and removed nodes stay reachable through their
//     next pointers, so recovery just checks whether the node is in the
//     chain.
//   - Dequeue detectability: a dequeuer claims the head node by CASing a
//     ⟨pid, opSeq⟩ pair into the node's deqBy field before swinging the
//     head pointer; opSeq is a per-process operation counter persisted at
//     the start of each dequeue. Recovery compares the claim in the last
//     targeted node against its own ⟨pid, opSeq⟩.
//
// The per-operation sequence numbers and announced node pointers are
// auxiliary state — exactly what Theorem 2 proves unavoidable for a
// detectable FIFO queue (Lemma 8 shows queues are doubly-perturbing). They
// also make the queue's space complexity unbounded in the number of
// operations, matching footnote 1 of the paper about the durable queue of
// Friedman et al.
package queue

import (
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// claim identifies the dequeue operation instance that removed a node.
type claim struct {
	Set bool
	P   int
	Seq uint64
}

// node is one queue cell in simulated NVM. Nodes are never unlinked: the
// next chain from the original sentinel stays intact so enqueue recovery
// can scan it.
type node struct {
	val   int
	next  nvm.CASRegister[*node]
	deqBy nvm.CASRegister[claim]
}

// Queue is an N-process detectable durable FIFO queue of integers.
type Queue struct {
	sys *runtime.System

	head, tail nvm.CASRegister[*node]
	// anchor is the original sentinel; the scan root for enqueue recovery.
	anchor *node

	// enqNode[p] announces the node p's in-flight enqueue is linking.
	enqNode []nvm.CASRegister[*node]
	// deqSeq[p] is p's persisted dequeue-operation counter; deqTarget[p]
	// announces the node p's in-flight dequeue last tried to claim.
	deqSeq    []nvm.CASRegister[uint64]
	deqTarget []nvm.CASRegister[*node]

	eAnn []*runtime.Ann[int]
	dAnn []*runtime.Ann[int]
}

// New allocates an empty queue in sys's memory space.
func New(sys *runtime.System) *Queue {
	sp := sys.Space()
	sentinel := &node{
		next:  nvm.NewWord[*node](sp, nil),
		deqBy: nvm.NewWord(sp, claim{}),
	}
	q := &Queue{
		sys:    sys,
		head:   nvm.NewWord(sp, sentinel),
		tail:   nvm.NewWord(sp, sentinel),
		anchor: sentinel,
	}
	for p := 0; p < sys.N(); p++ {
		q.enqNode = append(q.enqNode, nvm.NewWord[*node](sp, nil))
		q.deqSeq = append(q.deqSeq, nvm.NewWord(sp, uint64(0)))
		q.deqTarget = append(q.deqTarget, nvm.NewWord[*node](sp, nil))
		q.eAnn = append(q.eAnn, runtime.NewAnn[int](sp))
		q.dAnn = append(q.dAnn, runtime.NewAnn[int](sp))
	}
	return q
}

// Enq performs a detectable Enq(v) as process pid.
func (q *Queue) Enq(pid, v int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return runtime.Execute(q.sys, pid, q.EnqOp(pid, v), plans...)
}

// Deq performs a detectable Deq() as process pid. The response is the
// dequeued value or spec.Empty.
func (q *Queue) Deq(pid int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return runtime.Execute(q.sys, pid, q.DeqOp(pid), plans...)
}

// EnqOp builds the recoverable Enq instance for pid.
func (q *Queue) EnqOp(pid, v int) runtime.Op[int] {
	ann := q.eAnn[pid]
	sp := q.sys.Space()
	return runtime.Op[int]{
		Desc:     spec.NewOp(spec.MethodEnq, v),
		Announce: func(ctx *nvm.Ctx) { ann.Announce(ctx, "enq") },
		Body: func(ctx *nvm.Ctx) int {
			n := &node{
				val:   v,
				next:  nvm.NewWord[*node](sp, nil),
				deqBy: nvm.NewWord(sp, claim{}),
			}
			q.enqNode[pid].Store(ctx, n) // persist the node's identity
			ann.SetCP(ctx, 1)
			q.link(ctx, n)
			ann.SetResult(ctx, spec.Ack)
			return spec.Ack
		},
		Recover: func(ctx *nvm.Ctx) (int, bool) {
			if r := ann.Result(ctx); r.Set {
				return spec.Ack, true
			}
			if ann.GetCP(ctx) == 0 {
				return 0, false
			}
			n := q.enqNode[pid].Load(ctx)
			if n == nil || !q.contains(ctx, n) {
				return 0, false // node never linked: not linearized
			}
			ann.SetResult(ctx, spec.Ack)
			return spec.Ack, true
		},
		Encode: runtime.EncodeInt,
	}
}

// link appends n using the Michael-Scott protocol (with tail helping).
func (q *Queue) link(ctx *nvm.Ctx, n *node) {
	for {
		last := q.tail.Load(ctx)
		next := last.next.Load(ctx)
		if next == nil {
			if last.next.CompareAndSwap(ctx, nil, n) { // linearization point
				q.tail.CompareAndSwap(ctx, last, n) // help
				return
			}
			continue
		}
		q.tail.CompareAndSwap(ctx, last, next) // help a stalled enqueue
	}
}

// contains reports whether n is reachable from the original sentinel.
// Removed nodes stay chained, so a linked node is found even after it was
// dequeued.
func (q *Queue) contains(ctx *nvm.Ctx, n *node) bool {
	for cur := q.anchor; cur != nil; cur = cur.next.Load(ctx) {
		if cur == n {
			return true
		}
	}
	return false
}

// DeqOp builds the recoverable Deq instance for pid.
func (q *Queue) DeqOp(pid int) runtime.Op[int] {
	ann := q.dAnn[pid]
	return runtime.Op[int]{
		Desc:     spec.NewOp(spec.MethodDeq),
		Announce: func(ctx *nvm.Ctx) { ann.Announce(ctx, "deq") },
		Body: func(ctx *nvm.Ctx) int {
			myseq := q.deqSeq[pid].Load(ctx) + 1
			q.deqSeq[pid].Store(ctx, myseq) // persist the fresh op id
			for {
				first := q.head.Load(ctx)
				last := q.tail.Load(ctx)
				next := first.next.Load(ctx)
				if first == last {
					if next == nil { // linearization point for empty
						ann.SetResult(ctx, spec.Empty)
						return spec.Empty
					}
					q.tail.CompareAndSwap(ctx, last, next) // help
					continue
				}
				if !MutantDropDeqTargetPersist {
					q.deqTarget[pid].Store(ctx, next) // persist the target
				}
				ann.SetCP(ctx, 1)
				if next.deqBy.CompareAndSwap(ctx, claim{}, claim{Set: true, P: pid, Seq: myseq}) {
					q.head.CompareAndSwap(ctx, first, next)
					ann.SetResult(ctx, next.val)
					return next.val
				}
				q.head.CompareAndSwap(ctx, first, next) // help remove claimed node
			}
		},
		Recover: func(ctx *nvm.Ctx) (int, bool) {
			if r := ann.Result(ctx); r.Set {
				return r.Val, true
			}
			if ann.GetCP(ctx) == 0 {
				return 0, false
			}
			n := q.deqTarget[pid].Load(ctx)
			if n == nil {
				return 0, false
			}
			myseq := q.deqSeq[pid].Load(ctx)
			if n.deqBy.Load(ctx) == (claim{Set: true, P: pid, Seq: myseq}) {
				// Our claim landed: the dequeue was linearized.
				ann.SetResult(ctx, n.val)
				return n.val, true
			}
			return 0, false
		},
		Encode: runtime.EncodeInt,
	}
}

// PeekAll returns the queue's current (not yet dequeued) values without a
// Ctx, for tests. Nodes already claimed by a dequeuer are logically removed
// even when the head pointer has not caught up yet, so they are skipped.
func (q *Queue) PeekAll() []int {
	var out []int
	cur := q.head.Peek()
	for n := cur.next.Peek(); n != nil; n = n.next.Peek() {
		if !n.deqBy.Peek().Set {
			out = append(out, n.val)
		}
	}
	return out
}
