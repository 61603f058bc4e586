// Command bounds prints the paper's lower-bound tables and checks every row
// against the paper:
//
//	bounds configspace [-maxn 4] [-ablate]   Theorem 1 (E3): detectable CAS reaches 2^N − 1 memory-distinct configurations; -ablate adds Theorem 2 (E4), rcas and rw without auxiliary state
//	bounds perturb [-domain 3] [-depth 5]    Lemmas 3–8 (E6): which objects are doubly-perturbing, and their perturbation depth
//	bounds spacetable [-valuebits 64]        E7: shared bits beyond the value, bounded algorithms against sequence-number baselines
//
// Exit status, for every subcommand: 0 every row agrees with the paper, 1 a
// row contradicts it (a configuration count below 2^N − 1, an ablation that
// finds no violation or whose healthy object does not explore cleanly, a
// doubly-perturbing verdict other than its lemma's), 2 a usage error.
//
// Both theorems run on the objects that ship, under internal/explore's
// scheduler.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"detectable/internal/explore"
	"detectable/internal/perturb"
	"detectable/internal/runtime"
	"detectable/internal/space"
	"detectable/internal/spec"
)

// The exit rule.
const (
	exitAgree      = 0
	exitContradict = 1
	exitUsage      = 2
)

const usage = "usage: bounds configspace [-maxn 4] [-ablate] | bounds perturb [-domain 3] [-depth 5] | bounds spacetable [-valuebits 64]"

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run dispatches args to a subcommand, which prints its table to w.
func run(args []string, w io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usage)
		return exitUsage
	}
	fs := flag.NewFlagSet("bounds "+args[0], flag.ContinueOnError)
	var table func() int
	switch args[0] {
	case "configspace":
		maxN := fs.Int("maxn", 4, "largest process count to explore (≤ 4)")
		ablate := fs.Bool("ablate", false, "also run the Theorem 2 aux-state ablation")
		table = func() int { return configspace(w, *maxN, *ablate) }
	case "perturb":
		domain := fs.Int("domain", 3, "value domain size for the bounded search")
		depth := fs.Int("depth", 5, "history length bound")
		table = func() int { return perturbTable(w, *domain, *depth) }
	case "spacetable":
		valueBits := fs.Int("valuebits", 64, "width of the stored application value in bits")
		table = func() int { return spacetable(w, *valueBits) }
	default:
		fmt.Fprintln(os.Stderr, usage)
		return exitUsage
	}
	if err := fs.Parse(args[1:]); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n%s\n", fs.Name(), fs.Arg(0), usage)
		return exitUsage
	}
	return table()
}

// theorem1 judges one configspace row: N processes must reach at least
// 2^N − 1 memory-distinct configurations.
func theorem1(n, got int) (verdict string, exit int) {
	if got < 1<<n-1 {
		return "VIOLATED", exitContradict
	}
	return "OK", exitAgree
}

// maxProcs bounds configspace's N: the count's schedule space grows
// steeply with N (N = 3 takes milliseconds, N = 4 seconds).
const maxProcs = 4

func configspace(w io.Writer, maxN int, ablate bool) int {
	if maxN < 1 || maxN > maxProcs {
		fmt.Fprintf(os.Stderr, "bounds configspace: maxn must be in [1, %d]\n", maxProcs)
		return exitUsage
	}

	fmt.Fprintln(w, "Theorem 1 (E3): reachable memory-distinct configurations of detectable CAS")
	fmt.Fprintf(w, "%4s %16s %16s %8s\n", "N", "configs found", "2^N - 1 bound", "verdict")
	exit := exitAgree
	for n := 1; n <= maxN; n++ {
		got, err := explore.ConfigCount(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bounds configspace: N=%d: %v\n", n, err)
			return exitContradict
		}
		verdict, e := theorem1(n, got)
		exit = max(exit, e)
		fmt.Fprintf(w, "%4d %16d %16d %8s\n", n, got, 1<<n-1, verdict)
	}

	if !ablate {
		return exit
	}

	// One process, one crash, every schedule. The trailing read is what
	// convicts: the explorer checks responses, and a recovery that answers
	// from the previous operation's leftovers shows in what the read sees.
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Theorem 2 (E4): detectability without auxiliary state (Announce skips its reset)")
	for _, a := range []struct {
		object string
		prog   explore.Program
	}{
		{"rcas", explore.Program{{spec.NewOp(spec.MethodCAS, 0, 1), spec.NewOp(spec.MethodCAS, 1, 0), spec.NewOp(spec.MethodRead)}}},
		{"rw", explore.Program{{spec.NewOp(spec.MethodWrite, 1), spec.NewOp(spec.MethodWrite, 2), spec.NewOp(spec.MethodRead)}}},
	} {
		runtime.MutantSkipReset = true
		ablated := exhaust(a.object, a.prog)
		runtime.MutantSkipReset = false
		healthy := exhaust(a.object, a.prog)
		switch {
		case ablated.Err != nil || healthy.Err != nil:
			fmt.Fprintf(os.Stderr, "bounds configspace: %s ablation: %v\n", a.object, errors.Join(ablated.Err, healthy.Err))
			return exitContradict
		case ablated.Counterexample == nil:
			fmt.Fprintf(os.Stderr, "bounds configspace: %s ablation found no violation in %d executions\n", a.object, ablated.Stats.Executions)
			return exitContradict
		case healthy.Counterexample != nil || !healthy.Exhausted:
			fmt.Fprintf(os.Stderr, "bounds configspace: %s with auxiliary state did not explore cleanly: %v\n", a.object, healthy.Counterexample)
			return exitContradict
		}
		fmt.Fprintf(w, "  %-4s without aux state: %s (%s, execution %d)\n",
			a.object, ablated.Counterexample, ablated.Counterexample.Note, ablated.Stats.Executions)
		fmt.Fprintf(w, "  %-4s with aux state:    clean, exhausted in %d executions\n", a.object, healthy.Stats.Executions)
	}
	return exit
}

// exhaust explores prog on the named object with one crash until every
// schedule has run.
func exhaust(object string, prog explore.Program) explore.Result {
	h, err := explore.ByName(object)
	if err != nil {
		return explore.Result{Err: err}
	}
	return explore.Run(h, prog, explore.Options{MaxCrashes: 1, MaxPreemptions: -1})
}

// object is one perturb row: the object, the operations that drive its
// perturbation depth, and what its lemma says.
type object struct {
	obj    spec.Object
	setup  []spec.Operation
	family func(i int) spec.Operation
	probe  spec.Operation
	lemma  string
	doubly bool // the lemma's verdict: a doubly-perturbing witness exists
}

func perturbTable(w io.Writer, domain, depth int) int {
	const cap = 50

	// A queue prefilled with distinct values lets successive dequeues keep
	// changing a probe dequeue's response (Jayanti-style perturbation).
	var queueSetup []spec.Operation
	for i := 1; i <= cap+2; i++ {
		queueSetup = append(queueSetup, spec.NewOp(spec.MethodEnq, i))
	}

	objects := []object{
		{spec.Register{}, nil,
			func(i int) spec.Operation { return spec.NewOp(spec.MethodWrite, i) },
			spec.NewOp(spec.MethodRead), "Lemma 3", true},
		{spec.MaxRegister{}, nil,
			func(i int) spec.Operation { return spec.NewOp(spec.MethodWriteMax, i) },
			spec.NewOp(spec.MethodRead), "Lemma 4", false},
		{spec.Counter{}, nil,
			func(int) spec.Operation { return spec.NewOp(spec.MethodInc) },
			spec.NewOp(spec.MethodRead), "Lemma 5", true},
		{spec.Counter{Bound: 2}, nil,
			func(int) spec.Operation { return spec.NewOp(spec.MethodInc) },
			spec.NewOp(spec.MethodRead), "Lemma 5 (appendix)", true},
		{spec.CAS{}, nil,
			func(i int) spec.Operation {
				if i%2 == 1 {
					return spec.NewOp(spec.MethodCAS, 0, 1)
				}
				return spec.NewOp(spec.MethodCAS, 1, 0)
			},
			spec.NewOp(spec.MethodRead), "Lemma 6", true},
		{spec.FAA{}, nil,
			func(int) spec.Operation { return spec.NewOp(spec.MethodFAA, 1) },
			spec.NewOp(spec.MethodRead), "Lemma 7", true},
		{spec.Queue{}, queueSetup,
			func(int) spec.Operation { return spec.NewOp(spec.MethodDeq) },
			spec.NewOp(spec.MethodDeq), "Lemma 8", true},
	}

	fmt.Fprintf(w, "%-16s %-20s %-10s %-14s %s\n",
		"object", "doubly-perturbing", "depth", "perturbable", "reference")
	exit := exitAgree
	for _, o := range objects {
		res := perturb.FindDoublyPerturbing(o.obj, domain, depth)
		dp := "no (bounded)"
		if res.Doubly {
			dp = "yes"
		} else if res.Exhaustive {
			dp = "no (exhaustive)"
		}
		d := perturb.PerturbationDepth(o.obj, o.setup, o.family, o.probe, cap)
		depthStr := fmt.Sprint(d)
		pert := "bounded"
		if d >= cap {
			depthStr = fmt.Sprintf("≥%d", cap)
			pert = "yes"
		}
		fmt.Fprintf(w, "%-16s %-20s %-10s %-14s %s\n", o.obj.Name(), dp, depthStr, pert, o.lemma)
		if res.Doubly {
			fmt.Fprintf(w, "%-16s   witness: %s\n", "", res.Witness)
		}
		if res.Doubly != o.doubly {
			fmt.Fprintf(os.Stderr, "bounds perturb: %s: doubly-perturbing %q contradicts %s\n", o.obj.Name(), dp, o.lemma)
			exit = exitContradict
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Theorem 2 applies to every doubly-perturbing object above: any")
	fmt.Fprintln(w, "obstruction-free detectable implementation must receive auxiliary state.")
	fmt.Fprintln(w, "The max register (not doubly-perturbing) escapes it — see Algorithm 3.")
	return exit
}

func spacetable(w io.Writer, valueBits int) int {
	if valueBits < 1 {
		fmt.Fprintln(os.Stderr, "bounds spacetable: valuebits must be positive")
		return exitUsage
	}
	ns := []int{2, 4, 8, 16, 64}
	ops := []uint64{1_000, 1_000_000, 1_000_000_000}

	fmt.Fprintln(w, "CAS objects — shared bits beyond the value (Theorem 1 bound: Ω(N)):")
	fmt.Fprint(w, space.FormatTable(space.CompareCAS(ns, ops, valueBits)))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Read/write registers — shared bits beyond the value:")
	fmt.Fprint(w, space.FormatTable(space.CompareRW(ns, ops, valueBits)))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Per-process auxiliary state (Definition 1 / Theorem 2):")
	for _, p := range []space.Profile{
		space.RW(8, valueBits), space.RCAS(8, valueBits), space.MaxReg(8, valueBits),
	} {
		fmt.Fprintf(w, "  %-24s %d aux bits, %d private bits per process\n",
			p.Impl, p.AuxBitsPerProc, p.PrivateBitsPerProc)
	}
	return exitAgree
}
