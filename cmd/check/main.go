// Command check runs the repository's two model checkers and replays the
// counterexamples either one writes:
//
//	check explore [flags]   process schedules × crash points of the detectable objects (internal/explore)
//	check sweep [flags]     disk crash points × torn writes of the durable recovery path (internal/simio)
//	check replay FILE       re-check one written counterexample
//
// Both write each counterexample into -trace-dir as one JSON shape,
// {"checker": "explore"|"sweep", "trace": …}, on which replay dispatches.
// A trace replays deterministically, so a committed one is a regression test.
//
// Exit status, for every subcommand: 0 clean, 1 a violation found or
// reproduced, 2 a usage, malformed-trace or infrastructure error. sweep's
// -expect-violation swaps 0 and 1, to prove it still convicts a seeded mutant.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"detectable/internal/durable"
	"detectable/internal/explore"
	"detectable/internal/simio"
)

// The exit rule.
const (
	exitClean     = 0
	exitViolation = 1
	exitError     = 2
)

const usage = "usage: check explore [flags] | check sweep [flags] | check replay FILE"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	switch {
	case len(args) > 0 && args[0] == "explore":
		return exploreCmd(args[1:])
	case len(args) > 0 && args[0] == "sweep":
		return sweepCmd(args[1:])
	case len(args) == 2 && args[0] == "replay":
		return replay(args[1])
	}
	fmt.Fprintln(os.Stderr, usage)
	return exitError
}

// common holds the flags both checkers define.
type common struct {
	budget   time.Duration
	traceDir string
	verbose  bool
}

func newFlags(name string) (*flag.FlagSet, *common) {
	fs := flag.NewFlagSet("check "+name, flag.ExitOnError)
	c := &common{}
	fs.DurationVar(&c.budget, "budget", 0, "wall-clock budget, explore's split evenly across objects (0 = unlimited)")
	fs.StringVar(&c.traceDir, "trace-dir", "", "directory to write counterexample traces into (created if missing)")
	fs.BoolVar(&c.verbose, "v", false, "per-object statistics (explore), per-point enumeration details (sweep)")
	return fs, c
}

// parse parses args into fs and refuses positional leftovers.
func parse(fs *flag.FlagSet, args []string) bool {
	fs.Parse(args) // ExitOnError: a bad flag exits 2
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n%s\n", fs.Name(), fs.Arg(0), usage)
		return false
	}
	return true
}

func exploreCmd(args []string) int {
	fs, c := newFlags("explore")
	var (
		objects = fs.String("objects", "all", "comma-separated harness names ('all' = every registered object; see -list)")
		list    = fs.Bool("list", false, "list the registered harnesses and exit")
		procs   = fs.Int("procs", 2, "processes per explored execution")
		ops     = fs.Int("ops", 2, "operations per process")
		crashes = fs.Int("crashes", 1, "per-execution budget of injected system-wide crashes")
		preempt = fs.Int("preempt", 2, "preemption bound for iterative deepening (-1 = deepen until exhausted)")
		execs   = fs.Int("execs", 0, "cap on executions per object (0 = unlimited)")
	)
	if !parse(fs, args) {
		return exitError
	}
	if *list {
		for _, h := range explore.Harnesses() {
			fmt.Println(h.Name)
		}
		return exitClean
	}
	hs := explore.Harnesses()
	if *objects != "all" {
		hs = nil
		for _, name := range strings.Split(*objects, ",") {
			h, err := explore.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return exitError
			}
			hs = append(hs, h)
		}
	}
	deadline := time.Time{}
	if c.budget > 0 {
		deadline = time.Now().Add(c.budget)
	}

	fmt.Printf("explore: %d object(s), %d procs x %d ops, <=%d crash(es), preemption bound %d, %v total\n",
		len(hs), *procs, *ops, *crashes, *preempt, c.budget)

	exit := exitClean
	for i, h := range hs {
		// Split the remaining budget over the remaining objects, so time a
		// fast-exhausting object leaves unused flows to the deeper ones.
		perObject := time.Duration(0)
		if !deadline.IsZero() {
			perObject = max(time.Until(deadline)/time.Duration(len(hs)-i), time.Millisecond) // expired: 0 would mean unlimited
		}
		res := explore.Run(h, h.DefaultProgram(*procs, *ops), explore.Options{
			MaxCrashes:     *crashes,
			MaxPreemptions: *preempt,
			MaxExecutions:  *execs,
			Budget:         perObject,
		})
		status := fmt.Sprintf("ok (budget stop at bound %d)", res.Stats.Bound)
		switch {
		case res.Err != nil:
			status = "ERROR"
		case res.Counterexample != nil:
			status = "VIOLATION"
		case res.Exhausted:
			status = "ok (exhausted)"
		case res.Complete:
			status = fmt.Sprintf("ok (complete at bound %d)", res.Stats.Bound)
		}
		fmt.Printf("%-8s %9d execs  %7.3fs  %s\n", h.Name, res.Stats.Executions, res.Elapsed.Seconds(), status)
		if c.verbose {
			fmt.Printf("         passes=%d cutoffs=%d sleep-skips=%d preempt-skips=%d\n",
				res.Stats.Passes, res.Stats.Cutoffs, res.Stats.SleepSkips, res.Stats.PreemptSkips)
		}
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "explore: %s: %v\n", h.Name, res.Err)
			exit = exitError
		}
		if cx := res.Counterexample; cx != nil {
			exit = max(exit, exitViolation)
			fmt.Fprintf(os.Stderr, "explore: %s: durable-linearizability violation\n  %s\n", h.Name, cx)
			c.write(h.Name, "explore", cx)
		}
	}
	return exit
}

// mutants maps sweep's -mutant names to the durable mutation hooks.
var mutants = map[string]*bool{
	"outcome-first":      &durable.MutantOutcomeFirst,
	"rewrite-no-dirsync": &durable.MutantRewriteNoDirSync,
}

func sweepCmd(args []string) int {
	fs, c := newFlags("sweep")
	var (
		cfg        simio.SweepConfig
		mutant     = fs.String("mutant", "", "seed a mutant: outcome-first or rewrite-no-dirsync")
		expectViol = fs.Bool("expect-violation", false, "swap exit statuses 0 and 1: fail when the sweep finds NOTHING")
	)
	fs.IntVar(&cfg.Shards, "shards", 2, "shard count of the simulated store")
	fs.IntVar(&cfg.Procs, "procs", 3, "process slots of the simulated store")
	fs.IntVar(&cfg.Window, "window", 64, "outcome window size")
	fs.IntVar(&cfg.Ops, "ops", 6, "committed mutations in the workload")
	fs.IntVar(&cfg.Keys, "keys", 2, "distinct keys per shard")
	fs.IntVar(&cfg.EpochBatch, "epoch-batch", 0, "members of an explicit multi-member epoch (0 = none)")
	fs.Int64Var(&cfg.CompactAt, "compact-at", 0, "compaction threshold in bytes (0 = durable default)")
	fs.IntVar(&cfg.MaxImages, "max-images", 0, "cap on byte images per crash point (0 = unlimited)")
	if !parse(fs, args) {
		return exitError
	}
	if *mutant != "" {
		m, ok := mutants[*mutant]
		if !ok {
			fmt.Fprintf(os.Stderr, "sweep: unknown -mutant %q (want outcome-first or rewrite-no-dirsync)\n", *mutant)
			return exitError
		}
		*m = true
		defer func() { *m = false }()
	}
	cfg.Budget = c.budget
	if c.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
		}
	}

	start := time.Now()
	res, err := simio.Sweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: workload failed (crash-free path is broken): %v\n", err)
		return exitError
	}
	fmt.Printf("sweep: %d fs ops, %d crash points (%d cut short by -max-images), %d byte images recovered (each ×3) in %v\n",
		res.Ops, res.Points, res.CappedPoints, res.Images, time.Since(start).Round(time.Millisecond))
	if res.BudgetHit {
		fmt.Printf("sweep: wall-clock budget exhausted after %d/%d crash points\n", res.Points, res.Ops+1)
	}
	for i, v := range res.Violations {
		fmt.Printf("VIOLATION %d at crash point %d: %s\n", i, v.Point, v.Detail)
		c.write(fmt.Sprintf("sweep-%02d-point-%04d", i, v.Point), "sweep", v)
	}

	switch found := res.Found > 0; {
	case found && *expectViol:
		fmt.Printf("sweep: seeded mutant convicted (%d violations) — sweep is alive\n", res.Found)
		return exitClean
	case found:
		fmt.Printf("sweep: %d violations found, the first %d reported\n", res.Found, len(res.Violations))
		return exitViolation
	case *expectViol:
		fmt.Println("sweep: FAIL: seeded mutant survived the sweep undetected")
		return exitViolation
	}
	fmt.Println("sweep: zero violations")
	return exitClean
}

// traceFile is the one counterexample format: the checker that wrote it
// and that checker's trace.
type traceFile struct {
	Checker string          `json:"checker"`
	Trace   json.RawMessage `json:"trace"`
}

// write stores trace as <trace-dir>/<name>.trace.json, when -trace-dir is
// set, and says where.
func (c *common) write(name, checker string, trace any) {
	if c.traceDir == "" {
		return
	}
	path := filepath.Join(c.traceDir, name+".trace.json")
	raw, err := json.Marshal(trace)
	if err == nil {
		raw, err = json.MarshalIndent(traceFile{Checker: checker, Trace: raw}, "", "  ")
	}
	if err == nil {
		err = os.MkdirAll(c.traceDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "check: writing trace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "  trace written to %s (replay with: check replay %s)\n", path, path)
}

// replay re-checks the counterexample in path with the checker that wrote
// it and reports the verdict under the exit rule.
func replay(path string) int {
	var f traceFile
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		return exitError
	}
	switch f.Checker {
	case "explore":
		return replayExplore(f.Trace)
	case "sweep":
		return replaySweep(f.Trace)
	}
	fmt.Fprintf(os.Stderr, "replay: %s: unknown checker %q (want explore or sweep)\n", path, f.Checker)
	return exitError
}

// replayExplore re-executes the schedule and prints the history, the
// detectability report and the verdict.
func replayExplore(raw []byte) int {
	t, err := explore.UnmarshalTrace(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	fmt.Printf("replaying %s\n", t)
	rr, err := explore.Replay(t)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	fmt.Println("history:")
	for i, e := range rr.Events {
		fmt.Printf("%4d %s\n", i, e)
	}
	fmt.Printf("report: completed=%d recovered=%d failed=%d pending=%d crashes=%d\n",
		rr.Report.Completed, rr.Report.Recovered, rr.Report.Failed, rr.Report.Pending, rr.Report.Crashes)
	if rr.Linearizable {
		fmt.Println("verdict: durably linearizable (no violation)")
		return exitClean
	}
	fmt.Println("verdict: NOT durably linearizable — violation reproduced")
	return exitViolation
}

// replaySweep recovers the byte image and re-runs the sweep's checks on it.
func replaySweep(raw []byte) int {
	var t simio.Trace
	if err := json.Unmarshal(raw, &t); err != nil || t.Config.Dir == "" || t.Config.Shards < 1 || t.Config.Procs < 1 || t.Config.Window < 1 {
		fmt.Fprintf(os.Stderr, "replay: bad sweep trace (%v): config %+v\n", err, t.Config)
		return exitError
	}
	fmt.Printf("replaying sweep crash point %d: %d files, %d writes of the workload\nrecorded: %s\n",
		t.Point, len(t.Image.Files), len(t.Written), t.Detail)
	if detail := simio.Replay(t); detail != "" {
		fmt.Printf("verdict: %s — violation reproduced\n", detail)
		return exitViolation
	}
	fmt.Println("verdict: the image passes every check (no violation)")
	return exitClean
}
