// Command bench is the repository's benchmark: it runs the real served
// stack in this process — server.New / server.NewStandby on loopback TCP,
// sessions through internal/client, durable.Open on fresh directories — at
// kvserverd's default geometry, drives one of four fixed workloads against
// it, checks what came back, and prints every metric by name with its unit.
// README.md explains the workloads, the metrics and how to read them.
//
//	go run . -seed 1                        every workload, untraced then traced, one process per run
//	go run . -workload dur-mix-zipf -trace 0 -seed 7 -seconds 20
//	go run . -compare A B                   two sets of result files, A the baseline
//
// The untraced run of a workload gives its end-to-end (gated) metrics and,
// ungated, the speed of its window; the traced run gives the per-layer ones
// (a served trace of the same workload and seed, the crash-image check, and
// the ladder). It exits non-zero on any violation of the checks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of every random choice the load makes")
		seconds  = flag.Int("seconds", 30, "measured window of one run, in seconds")
		trace    = flag.Int("trace", -1, "0: untraced run (end-to-end metrics), 1: traced run (per-layer metrics), -1: both")
		out      = flag.String("out", "out", "directory for result files, traces and scratch data")
		compare  = flag.Bool("compare", false, "compare two sets of result files: -compare A B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two directories: the baseline and the candidate")
			os.Exit(2)
		}
		regressed, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: need seconds ≥ 1")
		os.Exit(2)
	}
	var ok bool
	var err error
	if *workload == "" {
		ok, err = runEach(*trace, os.Args[1:])
	} else if spec, found := findWorkload(*workload); found {
		ok, err = runOne(spec, *seed, time.Duration(*seconds)*time.Second, *trace, *out)
	} else {
		err = fmt.Errorf("no workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runEach makes every workload's runs, each in a process of its own — as
// the benchmark's driver makes them — so that no run inherits another's
// heap. It reports whether every run was correct.
func runEach(trace int, args []string) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	ok = true
	for _, t := range []int{0, 1} {
		if trace >= 0 && t != trace {
			continue
		}
		for _, spec := range workloads {
			cmd := exec.Command(self, append(args[:len(args):len(args)], "-workload", spec.Name, "-trace", strconv.Itoa(t))...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			var exit *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exit) && exit.ExitCode() == 1 {
				ok = false // a violation: the run printed it; make the other runs too
			} else if err != nil {
				return false, fmt.Errorf("%s: %w", spec.Name, err)
			}
		}
	}
	return ok, nil
}

// runOne makes the untraced and/or traced run of one workload, printing
// and filing each result, and reports whether every run was correct.
func runOne(spec workloadSpec, seed int64, seconds time.Duration, trace int, out string) (ok bool, err error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	ok = true
	for _, traced := range []bool{false, true} {
		if trace >= 0 && traced != (trace == 1) {
			continue
		}
		cfg := runConfig{spec: spec, seed: seed, seconds: seconds, keys: numKeys, tmpRoot: tmp, outDir: out}
		run := runUntraced
		if traced {
			run = runTraced
		}
		res, err := run(cfg)
		if err != nil {
			return false, fmt.Errorf("%s: %w", spec.Name, err)
		}
		if err := writeResult(out, res); err != nil {
			return false, err
		}
		printResult(res)
		ok = ok && res.Correct
	}
	return ok, nil
}

// printResult prints one line per metric, then the run's verdict as one
// JSON object on a line of its own — the last line of a single run.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("# %s %s seed=%d seconds=%g nproc=%d gomaxprocs=%d %s kernel=%s fs=%s commit=%s wall=%.1fs\n",
		res.Workload, mode, res.Seed, res.Seconds, res.Stamp.NProc, res.Stamp.GOMAXPROCS,
		res.Stamp.Go, res.Stamp.Kernel, res.Stamp.DataFs, res.Stamp.Commit, res.Stamp.WallS)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]valueUnit, len(names))}
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-14s %-26s %14.4f %-6s n=%d\n", res.Workload, name, m.Value, m.Unit, m.Samples)
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	infos := make([]string, 0, len(res.Info))
	for name := range res.Info {
		infos = append(infos, name)
	}
	sort.Strings(infos)
	for _, name := range infos {
		m := res.Info[name]
		fmt.Printf("%-14s %-26s %14.4f %-6s n=%d (ungated)\n", res.Workload, name, m.Value, m.Unit, m.Samples)
	}
	fmt.Printf("%-14s violations=%d failed=%d attempted=%d", res.Workload, res.Violations, res.Failed, res.Attempted)
	if res.FirstError != "" {
		fmt.Printf(" first_error=%q", res.FirstError)
	}
	fmt.Println()
	b, _ := json.Marshal(line) // a struct of numbers, strings and bools cannot fail to encode
	fmt.Println(string(b))
}
