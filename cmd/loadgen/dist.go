package main

import (
	"fmt"
	"math/rand"
	"time"

	"detectable/internal/linearize"
	"detectable/internal/workload"
)

// wlCfg bundles one run's workload shape: the operation mix, the key
// distribution, the batching knob and the pacing, shared by every mode.
type wlCfg struct {
	mixName string
	spec    mixSpec

	// dist selects the key chooser: "uniform" gives every process a
	// disjoint key slice, "zipf" gives every process the full key space
	// through a seeded Zipfian chooser (rank 0 hottest), so processes
	// genuinely share hot keys. Verification is the same for both.
	dist  string
	theta float64

	// mput > 0 turns the write side of the mix into MultiPut batches of
	// that many entries (the large-mutation mix): each entry's detectable
	// outcome is verified individually, exactly like a single put.
	mput int

	// rate > 0 paces every worker at that many requests/s on a fixed
	// schedule; its latencies then count from each request's slot.
	rate float64

	procs, shards, keys int
	dur                 time.Duration
	seed                int64
	verbose             bool
}

func (w *wlCfg) validate() error {
	spec, ok := mixes[w.mixName]
	if !ok {
		return fmt.Errorf("unknown mix %q (want read-heavy, write-heavy, mixed or crash-storm)", w.mixName)
	}
	w.spec = spec
	switch w.dist {
	case "uniform":
		if w.keys < w.procs {
			return fmt.Errorf("uniform needs keys ≥ procs (got procs=%d keys=%d)", w.procs, w.keys)
		}
	case "zipf":
		if w.theta < 0 {
			return fmt.Errorf("need -theta ≥ 0 (got %g)", w.theta)
		}
	default:
		return fmt.Errorf("unknown -dist %q (want uniform or zipf)", w.dist)
	}
	if w.procs < 1 || w.shards < 1 || w.keys < 1 || w.mput < 0 || w.rate < 0 {
		return fmt.Errorf("need procs ≥ 1, shards ≥ 1, keys ≥ 1, -mput ≥ 0 and -rate ≥ 0 (got procs=%d shards=%d keys=%d mput=%d rate=%g)",
			w.procs, w.shards, w.keys, w.mput, w.rate)
	}
	// A key's check follows its operations in flight: one batch at a time
	// per process that writes it, each entry possibly on that one key.
	writers := 1
	if w.shared() {
		writers = w.procs
	}
	if n := writers * max(w.mput, 1); n > linearize.MaxInFlight {
		return fmt.Errorf("up to %d operations could be in flight on one key, more than the %d its check follows (lower -procs or -mput)", n, linearize.MaxInFlight)
	}
	return nil
}

func (w *wlCfg) shared() bool { return w.dist == "zipf" }

// workerRNG derives worker pid's independent, replayable stream
// (splitmix-hashed — the old seed+pid*1001 scheme collided across -procs
// sweeps sharing a seed base).
func (w *wlCfg) workerRNG(pid int) *rand.Rand {
	return rand.New(rand.NewSource(workload.WorkerSeed(w.seed, w.procs, pid)))
}

// chooser draws worker pid's next key index into the global key list:
// Zipfian over the full space in shared mode, uniform over the worker's
// own disjoint slice otherwise.
type chooser struct {
	rng  *rand.Rand
	zipf *workload.Zipf // nil in uniform mode
	own  []int          // uniform mode: pid's global key indices
}

func (w *wlCfg) chooserFor(pid int, rng *rand.Rand) *chooser {
	if w.shared() {
		return &chooser{rng: rng, zipf: workload.NewZipf(rng, w.keys, w.theta)}
	}
	var own []int
	for k := pid; k < w.keys; k += w.procs {
		own = append(own, k)
	}
	return &chooser{rng: rng, own: own}
}

func (c *chooser) next() int {
	if c.zipf != nil {
		return c.zipf.Next()
	}
	return c.own[c.rng.Intn(len(c.own))]
}

// keyNames materializes the global key list ("key-0" is Zipf rank 0, the
// hottest key).
func keyNames(keys int) []string {
	out := make([]string, keys)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", i)
	}
	return out
}
