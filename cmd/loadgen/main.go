// Command loadgen drives a configurable workload against the sharded
// detectable key-value store (internal/shardkv) and reports aggregate and
// per-shard throughput.
//
// Every key is checked as a register, on its own (linearizability is
// local), by an online linearizability check (linearize.Sweep): each
// operation's invocation is fed before its request is sent and its
// detectable verdict after the reply arrives — a failed verdict takes the
// operation out of the history, a linearized one must fit in its
// interval. Every written value is unique and every run first zeroes its
// key space, so any lost or duplicated effect — a detectability violation
// — is convicted at the operation that shows it, counted and explained,
// and fails the run; a final sweep reads every key once through its check.
// The crash-storm mix additionally fails random single shards from a storm
// goroutine and injects planned crashes into individual operations; the
// run still must end with zero violations: every crashed operation
// resolves to a definite outcome.
//
// -dist picks only the key chooser. With the default uniform distribution
// each process owns a disjoint slice of the key space; with -dist zipf
// every process draws from the FULL key space through a seeded Zipfian
// chooser (-theta sets the skew; rank 0 is the hottest key), so processes
// genuinely contend on shared hot keys — the regime the lock-free key
// table and striped telemetry exist for. -mput N turns the write side of
// any mix into N-entry MultiPut batches (the large-mutation mix), each
// entry checked individually.
//
// With -remote the same workload and the same verification run against a
// live kvserverd over TCP instead of the in-process store.
// The crash-storm mix then additionally injects connection kills: workers
// randomly sever their own TCP connection (including right after sending a
// request, so the reply is lost mid-operation) and rely on session
// resumption to recover the original persisted verdict — the bar is still
// zero violations. `-remote self` starts an in-process server on a
// loopback port first, so the full wire path is exercised with no external
// daemon.
//
// -restart-storm, -failover-storm and -read-replica spawn their own durable
// kvserverd processes (through internal/harness) and break them beside the
// workload. Every mode runs the one worker loop of storm.go beside its
// fault schedule; docs/TESTING.md tabulates what each mode declares.
// -restarts 0 and -failovers 0 break nothing: a spawned durable server, or
// a primary gated by its sync standby, under the checked load.
//
// Every run prints the machine it ran on (CPUs, GOMAXPROCS, Go version and,
// for the spawning modes, the data directory's filesystem). Over wire
// sessions each worker also times every request, an MPUT as one, and the
// run prints their p50, p99 and max; -rate R paces each worker at R
// requests/s and counts each latency from the request's slot.
//
// Usage:
//
//	loadgen [-mix read-heavy|write-heavy|mixed|crash-storm] [-procs 4]
//	        [-shards 4] [-keys 64] [-dur 1s] [-seed 1] [-v]
//	        [-dist uniform|zipf] [-theta 0.99] [-mput 0]
//	        [-remote host:port | -remote self] [-rate 0]
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"detectable/internal/shardkv"
)

// mixSpec is a workload mix as cumulative percentages plus crash knobs.
type mixSpec struct {
	getPct, putPct int // remainder is del
	// planEvery injects a planned crash into roughly one in planEvery
	// operations (0 = never); stormEvery crashes one random shard on that
	// period (0 = no storm), time-based so the crash rate is comparable
	// across machines. killEvery severs the worker's own TCP connection on
	// roughly one in killEvery operations (remote mode only, 0 = never) —
	// half the kills fire after the request is sent but before the reply
	// is read, forcing the session-resume path mid-operation.
	planEvery  int
	stormEvery time.Duration
	killEvery  int
}

var mixes = map[string]mixSpec{
	"read-heavy":  {getPct: 90, putPct: 10},
	"write-heavy": {getPct: 10, putPct: 80},
	"mixed":       {getPct: 50, putPct: 40},
	"crash-storm": {getPct: 40, putPct: 50, planEvery: 8, stormEvery: time.Millisecond, killEvery: 24},
}

func main() {
	mix := flag.String("mix", "mixed", "workload mix: read-heavy, write-heavy, mixed or crash-storm")
	procs := flag.Int("procs", 4, "concurrent processes (per shard system)")
	shards := flag.Int("shards", 4, "number of independent shards")
	keys := flag.Int("keys", 64, "total key-space size (split across processes under -dist uniform)")
	dur := flag.Duration("dur", time.Second, "run duration")
	seed := flag.Int64("seed", 1, "randomness seed")
	verbose := flag.Bool("v", false, "print the per-shard breakdown")
	dist := flag.String("dist", "uniform", "key distribution: uniform (disjoint per-process keys) or zipf (shared hot keys)")
	theta := flag.Float64("theta", 0.99, "Zipfian skew exponent for -dist zipf (0 = uniform over the shared space)")
	mput := flag.Int("mput", 0, "batch the write side of the mix into MultiPuts of this many entries (0 = single-key puts)")
	remote := flag.String("remote", "", "drive a kvserverd at host:port instead of the in-process store (\"self\" starts one on a loopback port)")
	restartStorm := flag.Bool("restart-storm", false, "whole-process crash mode: spawn a durable kvserverd (-server-bin, -data) and SIGKILL/restart it mid-workload")
	serverBin := flag.String("server-bin", "", "kvserverd binary for -restart-storm, -failover-storm and -read-replica")
	dataDir := flag.String("data", "", "durable data directory for the spawning modes (empty = a fresh temp dir, removed after a passing run)")
	restarts := flag.Int("restarts", 5, "minimum SIGKILL/restart cycles for -restart-storm (0 = none: a spawned durable server under load)")
	restartEvery := flag.Duration("restart-every", 700*time.Millisecond, "delay between SIGKILLs for -restart-storm")
	failoverStorm := flag.Bool("failover-storm", false, "primary/backup failover mode: spawn a durable primary plus a replicating standby (-server-bin, -data) and SIGKILL/promote mid-workload")
	failovers := flag.Int("failovers", 3, "minimum SIGKILL/promote cycles for -failover-storm (0 = none: a primary gated by its sync standby under load)")
	failoverEvery := flag.Duration("failover-every", 900*time.Millisecond, "delay between primary SIGKILLs for -failover-storm")
	readReplica := flag.Bool("read-replica", false, "read-replica mode: writes at a durable primary, bounded-stale verified reads at a replicating standby (-server-bin, -data), one SIGKILL+promote mid-run with readers live")
	readerProcs := flag.Int("readers", 2, "GET-only reader goroutines for -read-replica")
	maxLag := flag.Uint64("max-lag", 64, "reader staleness bound in commit barriers for -read-replica (0 = unbounded)")
	rate := flag.Float64("rate", 0, "pace each worker at this many requests/s, latency counted from each request's slot (0 = closed loop)")
	flag.Parse()
	cfg := wlCfg{
		mixName: *mix, dist: *dist, theta: *theta, mput: *mput, rate: *rate,
		procs: *procs, shards: *shards, keys: *keys,
		dur: *dur, seed: *seed, verbose: *verbose,
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	mode, err := modeOf(map[string]bool{
		"remote": *remote != "", "restart-storm": *restartStorm,
		"failover-storm": *failoverStorm, "read-replica": *readReplica,
	}, set)
	if err == nil {
		err = cfg.validate()
	}
	switch {
	case err != nil:
	case mode == "read-replica":
		err = runReadReplicaStorm(*serverBin, *dataDir, &cfg, *readerProcs, *maxLag)
	case mode == "failover-storm":
		err = runFailoverStorm(*serverBin, *dataDir, &cfg, *failovers, *failoverEvery)
	case mode == "restart-storm":
		err = runRestartStorm(*serverBin, *dataDir, &cfg, *restarts, *restartEvery)
	case mode == "remote":
		err = runRemote(*remote, &cfg)
	default:
		err = run(&cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// modeOnly names the modes each mode-only flag serves.
var modeOnly = map[string]string{
	"server-bin":     "restart-storm failover-storm read-replica",
	"data":           "restart-storm failover-storm read-replica",
	"restarts":       "restart-storm",
	"restart-every":  "restart-storm",
	"failovers":      "failover-storm",
	"failover-every": "failover-storm",
	"readers":        "read-replica",
	"max-lag":        "read-replica",
}

// modeOf returns the one mode that on marks ("" = in process). It refuses
// two at once, and a mode-only flag given (set holds every flag given)
// without a mode it serves, which would be ignored.
func modeOf(on, set map[string]bool) (string, error) {
	mode := ""
	for _, m := range []string{"remote", "restart-storm", "failover-storm", "read-replica"} {
		if on[m] && mode != "" {
			return "", fmt.Errorf("-%s and -%s are two modes; pick one", mode, m)
		} else if on[m] {
			mode = m
		}
	}
	for _, f := range slices.Sorted(maps.Keys(set)) {
		if serves, ok := modeOnly[f]; ok && !slices.Contains(strings.Fields(serves), mode) {
			return "", fmt.Errorf("-%s is for -%s only", f, strings.ReplaceAll(serves, " ", ", -"))
		}
	}
	return mode, nil
}

// run is the in-process mode: every worker drives the store directly as
// its own process, beside the per-shard crash storm of the crash-storm mix.
func run(cfg *wlCfg) error {
	s := shardkv.New(cfg.shards, cfg.procs)
	targets := make([]target, cfg.procs)
	for pid := range targets {
		targets[pid] = storeTarget{s, pid}
	}
	st, err := newStorm(cfg, targets)
	if err != nil {
		return err
	}
	if err := st.runWorkers(cfg.spec, shardCrashes(cfg, cfg.shards, func(i int) error {
		s.CrashShard(i)
		return nil
	})); err != nil {
		return err
	}
	// Snapshot throughput over the measured window only; the verification
	// sweep in finish is bookkeeping, not serving.
	snaps := s.Snapshots()
	return st.finish(func() { report(snaps, cfg, st.elapsed) },
		"every operation resolved to a definite outcome, zero violations")
}

func report(snaps []shardkv.StatsSnapshot, cfg *wlCfg, elapsed time.Duration) {
	secs := elapsed.Seconds()
	if secs == 0 {
		secs = 1 // a -dur=0 run serves no measured window at all
	}
	var total shardkv.StatsSnapshot
	for _, st := range snaps {
		total = total.Add(st)
	}
	fmt.Printf("%s elapsed=%s\n", cfg.descr(len(snaps)), elapsed.Round(time.Millisecond))
	fmt.Printf("aggregate: %d ops (%.0f ops/sec) — gets=%d puts=%d dels=%d\n",
		total.Ops(), float64(total.Ops())/secs, total.Gets, total.Puts, total.Dels)
	fmt.Printf("verdicts:  ok=%d recovered=%d failed=%d not-invoked=%d retries=%d\n",
		total.OK, total.Recovered, total.Failed, total.NotInvoked, total.Retries)
	fmt.Printf("crashes:   injected=%d interruptions-observed=%d\n",
		total.CrashesInjected, total.CrashesSeen)
	if !cfg.verbose {
		return
	}
	fmt.Printf("%6s %10s %12s %10s %8s %8s %8s\n", "shard", "ops", "ops/sec", "recovered", "failed", "crashes", "retries")
	for i, st := range snaps {
		fmt.Printf("%6d %10d %12.0f %10d %8d %8d %8d\n",
			i, st.Ops(), float64(st.Ops())/secs, st.Recovered, st.Failed, st.CrashesInjected, st.Retries)
	}
}
