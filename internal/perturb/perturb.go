// Package perturb decides, by bounded exhaustive search over sequential
// histories, whether an object is doubly-perturbing (Definition 3 of the
// paper) — the property that makes auxiliary state unavoidable for
// detectable implementations (Theorem 2).
//
// An operation Op by process p witnesses that object O is doubly-perturbing
// if:
//
//  1. Op is perturbing with respect to some Op′ after a sequential history
//     H1 — running Op before Op′ changes Op′'s response; and
//  2. H1 ◦ Op ◦ Op′ has a p-free extension to a history H2 after which Op
//     (a second instance of it) is perturbing again.
//
// The search enumerates all states reachable within a depth bound. For
// finite-state objects (register, CAS, max register and bounded counter
// over a finite domain) the reachable state space saturates, so a negative
// answer is exhaustive, not merely bounded: this is how Lemma 4 (max
// register is NOT doubly-perturbing) is verified.
//
// The package also measures perturbation depth — how many times repeated
// instances of an operation family can change a probe's response — which
// separates Jayanti-style perturbable objects from doubly-perturbing ones:
// the max register is perturbable but not doubly-perturbing, while the
// bounded counter is doubly-perturbing but not perturbable (appendix of
// the paper).
package perturb

import (
	"fmt"
	"strings"

	"detectable/internal/spec"
)

// Witness records why an object is doubly-perturbing.
type Witness struct {
	// Op is the operation witnessing the property (Op_p in Definition 3).
	Op spec.Operation
	// H1 is the sequential history after which Op is first perturbing.
	H1 []spec.Operation
	// OpPrime is the operation whose response Op perturbs after H1.
	OpPrime spec.Operation
	// Extension is the p-free extension from H1◦Op◦OpPrime to H2.
	Extension []spec.Operation
	// OpPrime2 is the operation whose response the second instance of Op
	// perturbs after H2.
	OpPrime2 spec.Operation
}

// String renders the witness like the paper's lemma proofs.
func (w Witness) String() string {
	return fmt.Sprintf("op=%s H1=[%s] perturbs %s; ext=[%s] then perturbs %s",
		w.Op, joinOps(w.H1), w.OpPrime, joinOps(w.Extension), w.OpPrime2)
}

func joinOps(ops []spec.Operation) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ")
}

// Result is the outcome of a doubly-perturbing search.
type Result struct {
	// Doubly reports whether a witness was found.
	Doubly bool
	// Witness is valid when Doubly is true.
	Witness Witness
	// Exhaustive reports that the reachable state space saturated within
	// the depth bound, so a negative answer is a proof for this domain.
	Exhaustive bool
	// StatesExplored counts distinct reachable states considered.
	StatesExplored int
}

// FindDoublyPerturbing searches for a Definition 3 witness for obj over the
// value domain {0..domain-1}, exploring histories of length up to maxDepth
// before Op and extensions of length up to maxDepth after it.
func FindDoublyPerturbing(obj spec.Object, domain, maxDepth int) Result {
	ops := obj.Ops(domain)
	states, saturated := reachable(obj, obj.Init(), ops, maxDepth)

	res := Result{Exhaustive: saturated, StatesExplored: len(states)}
	for _, h1 := range states {
		for _, a := range ops {
			b, ok := perturbingAfter(obj, h1.state, a, ops)
			if !ok {
				continue
			}
			// Reach H2 via any extension of H1◦a◦b.
			sA, _ := obj.Apply(h1.state, a)
			sB, _ := obj.Apply(sA, b)
			ext, extSat := reachable(obj, sB, ops, maxDepth)
			for _, h3 := range ext {
				if b2, ok := perturbingAfter(obj, h3.state, a, ops); ok {
					res.Doubly = true
					res.Witness = Witness{
						Op: a, H1: h1.path, OpPrime: b,
						Extension: h3.path, OpPrime2: b2,
					}
					res.Exhaustive = res.Exhaustive && extSat
					return res
				}
			}
		}
	}
	return res
}

// perturbingAfter reports whether op is perturbing after the given state:
// some probe returns different responses with and without op before it
// (Definition 3's condition on Op′).
func perturbingAfter(obj spec.Object, state string, op spec.Operation, probes []spec.Operation) (spec.Operation, bool) {
	sA, _ := obj.Apply(state, op)
	for _, b := range probes {
		_, r1 := obj.Apply(sA, b)
		_, r2 := obj.Apply(state, b)
		if r1 != r2 {
			return b, true
		}
	}
	return spec.Operation{}, false
}

// reached is a reachable state and a shortest history that reaches it.
type reached struct {
	state string
	path  []spec.Operation
}

// reachable returns every state reachable from start within maxDepth
// operations, each with a shortest witness path, in breadth-first order, so
// a search over them finds the same witness on every run. saturated reports
// that no new states appeared at the final depth — i.e. the enumeration
// covers the entire reachable state space.
func reachable(obj spec.Object, start string, ops []spec.Operation, maxDepth int) ([]reached, bool) {
	states := []reached{{start, nil}}
	seen := map[string]bool{start: true}
	for d, from := 0, 0; d < maxDepth; d++ {
		to := len(states)
		for _, s := range states[from:to] {
			for _, op := range ops {
				ns, _ := obj.Apply(s.state, op)
				if seen[ns] {
					continue
				}
				seen[ns] = true
				states = append(states, reached{ns, append(s.path[:len(s.path):len(s.path)], op)})
			}
		}
		if len(states) == to {
			return states, true
		}
		from = to
	}
	return states, false
}

// PerturbationDepth measures how many times successive instances of an
// operation family can change the response of probe, starting from the
// object's initial state after applying setup. family(i) supplies the i-th
// instance (so families like writeMax(1), writeMax(2), … can escalate
// arguments, as Jayanti-style perturbation sequences may). The returned
// depth is capped at maxIters; reaching the cap indicates unbounded
// perturbing power (a perturbable object in the sense of Jayanti, Tan and
// Toueg), while a smaller value bounds it (e.g. 2 for the bounded counter,
// which therefore is not perturbable).
func PerturbationDepth(obj spec.Object, setup []spec.Operation, family func(i int) spec.Operation, probe spec.Operation, maxIters int) int {
	state := obj.Init()
	for _, op := range setup {
		state, _ = obj.Apply(state, op)
	}
	_, prev := obj.Apply(state, probe)
	changes := 0
	for i := 1; i <= maxIters; i++ {
		state, _ = obj.Apply(state, family(i))
		_, cur := obj.Apply(state, probe)
		if cur != prev {
			changes++
			prev = cur
		}
		if changes == maxIters {
			break
		}
	}
	return changes
}
