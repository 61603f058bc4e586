// Command simsweep model-checks the durable recovery path: it runs a
// durable workload against the simulated filesystem (internal/simio),
// enumerates every crash point × torn-write byte image the persistence
// model admits, recovers from each, and checks detectability
// (outcome-implies-effect, released-verdict survival) plus the hash-pinned
// purity and idempotence of recovery (durable.StateHash).
//
// Exit status is nonzero when violations are found — unless
// -expect-violation inverts the sense, which CI uses to prove the sweep
// still convicts a seeded mutant (-mutant outcome-first: an outcome written
// ahead of its effect; -mutant rewrite-no-dirsync with -compact-at: a
// compaction that skips its directory sync).
//
// Usage:
//
//	simsweep -ops 8 -epoch-batch 4                   # exhaust a workload
//	simsweep -budget 60s -max-images 8192            # budgeted deep sweep
//	simsweep -mutant outcome-first -expect-violation # CI mutant gate
//	simsweep -mutant rewrite-no-dirsync -compact-at 1 -expect-violation
//	simsweep -out /tmp/failures                      # dump convicting images
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"detectable/internal/durable"
	"detectable/internal/simio"
)

func main() {
	var (
		shards     = flag.Int("shards", 2, "shard count of the simulated store")
		procs      = flag.Int("procs", 3, "process slots of the simulated store")
		window     = flag.Int("window", 64, "outcome window size")
		ops        = flag.Int("ops", 6, "committed mutations in the workload")
		keys       = flag.Int("keys", 2, "distinct keys per shard")
		epochBatch = flag.Int("epoch-batch", 0, "members of an explicit multi-member epoch (0 = none)")
		compactAt  = flag.Int64("compact-at", 0, "compaction threshold in bytes (0 = durable default)")
		maxImages  = flag.Int("max-images", 0, "cap on byte images per crash point (0 = unlimited)")
		budget     = flag.Duration("budget", 0, "wall-clock budget for the sweep (0 = unlimited)")
		out        = flag.String("out", "", "directory to write convicting byte images into")
		mutant     = flag.String("mutant", "", "seed a mutant: outcome-first or rewrite-no-dirsync")
		expectViol = flag.Bool("expect-violation", false, "invert exit status: fail when the sweep finds NOTHING")
		verbose    = flag.Bool("v", false, "log per-point enumeration details")
	)
	flag.Parse()

	switch *mutant {
	case "":
	case "outcome-first":
		durable.MutantOutcomeFirst = true
	case "rewrite-no-dirsync":
		durable.MutantRewriteNoDirSync = true
	default:
		fmt.Fprintf(os.Stderr, "simsweep: unknown -mutant %q (want outcome-first or rewrite-no-dirsync)\n", *mutant)
		os.Exit(2)
	}

	cfg := simio.SweepConfig{
		Shards:     *shards,
		Procs:      *procs,
		Window:     *window,
		Ops:        *ops,
		Keys:       *keys,
		EpochBatch: *epochBatch,
		CompactAt:  *compactAt,
		MaxImages:  *maxImages,
		Budget:     *budget,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "simsweep: "+format+"\n", args...)
		}
	}

	start := time.Now()
	res, err := simio.Sweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simsweep: workload failed (crash-free path is broken): %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("simsweep: %d fs ops, %d crash points (%d cut short by -max-images), %d byte images recovered (each ×3) in %v\n",
		res.Ops, res.Points, res.CappedPoints, res.Images, time.Since(start).Round(time.Millisecond))
	if res.BudgetHit {
		fmt.Printf("simsweep: wall-clock budget exhausted after %d/%d crash points\n", res.Points, res.Ops+1)
	}

	for i, v := range res.Violations {
		fmt.Printf("VIOLATION %d at crash point %d: %s\n", i, v.Point, v.Detail)
		if v.Hash != "" {
			fmt.Printf("  first-recovery state hash: %s\n", v.Hash)
		}
		if *out != "" {
			dir := filepath.Join(*out, fmt.Sprintf("violation-%03d-point-%04d", i, v.Point))
			if err := dumpImage(dir, v.Image); err != nil {
				fmt.Fprintf(os.Stderr, "simsweep: dumping image: %v\n", err)
			} else {
				fmt.Printf("  convicting byte image written to %s\n", dir)
			}
		}
	}

	failed := len(res.Violations) > 0
	if *expectViol {
		if failed {
			fmt.Printf("simsweep: seeded mutant convicted (%d violations) — sweep is alive\n", len(res.Violations))
			os.Exit(0)
		}
		fmt.Println("simsweep: FAIL: seeded mutant survived the sweep undetected")
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("simsweep: zero violations")
}

// dumpImage materializes a convicting byte image onto the real filesystem
// so it can be attached as a CI artifact and replayed locally.
func dumpImage(dir string, img simio.Image) error {
	for _, d := range img.Dirs {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return err
		}
	}
	for p, data := range img.Files {
		full := filepath.Join(dir, p)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
