// Command loadgen drives a configurable workload against the sharded
// detectable key-value store (internal/shardkv), checks every operation and
// reports what its workers ran.
//
// Every key is checked as a register, on its own (linearizability is
// local), by an online linearizability check (linearize.Sweep): each
// operation's invocation is fed before its request is sent and its
// detectable verdict after the reply arrives — a failed verdict takes the
// operation out of the history, a linearized one must fit in its interval.
// Written values are unique and every run first zeroes its key space, so a
// lost or duplicated effect — a detectability violation — is convicted at
// the operation that shows it, explained, and fails the run; a final sweep
// reads every key once through its check.
//
// A worker's stream is a pure function of (-seed, -procs, pid) and the
// flags, faults included, so its calls replay. The crash-storm mix crashes
// a random shard before 1 in 32 requests and plans a crash into 1 in 8
// operations; every crashed operation must still resolve to a definite
// outcome. -dist uniform gives each process a disjoint slice of the keys;
// -dist zipf makes every process draw from the full key space (-theta sets
// the skew; key-0 is the hottest), so processes contend on hot keys. -mput
// N turns the write side of any mix into N-entry MultiPuts, each entry
// checked.
//
// -remote runs the same workload and check against a live kvserverd over
// TCP (`self` starts one on a loopback port). Its crash-storm mix also has
// workers sever their own connection, half the time right after sending a
// request, and recover the verdict by session resumption. -restart-storm,
// -failover-storm and -read-replica spawn durable kvserverd processes
// (internal/harness) and break them on a wall-clock schedule beside the
// workload; -restarts 0 and -failovers 0 break nothing. docs/TESTING.md
// tabulates what each mode declares.
//
// Every mode prints one report, counted by its own workers and readers in
// the measured window (not the key zeroing before it nor the final sweep):
// the mode's header, the ops (an MPUT entry is one) and the requests that
// carried them, their verdicts, the mode's faults, the same per shard with
// -v, the machine, and over wire sessions the requests' latency.
//
// Usage:
//
//	loadgen [-mix read-heavy|write-heavy|mixed|crash-storm] [-procs 4]
//	        [-shards 4] [-keys 64] [-dur 1s] [-seed 1] [-v]
//	        [-dist uniform|zipf] [-theta 0.99] [-mput 0]
//	        [-remote host:port | -remote self]
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
	// Each knob is a draw of the worker's seeded stream, 0 = never.
	// planEvery injects a planned crash into roughly one in planEvery
	// operations; crashEvery crashes one random shard before roughly one in
	// crashEvery requests. killEvery severs the worker's own TCP connection
	// on roughly one in killEvery operations (remote mode only) — half the
	// kills fire after the request is sent but before the reply is read,
	// forcing the session-resume path mid-operation.
	planEvery, crashEvery, killEvery int
}

var mixes = map[string]mixSpec{
	"read-heavy":  {getPct: 90, putPct: 10},
	"write-heavy": {getPct: 10, putPct: 80},
	"mixed":       {getPct: 50, putPct: 40},
	"crash-storm": {getPct: 40, putPct: 50, planEvery: 8, crashEvery: 32, killEvery: 24},
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
	flag.Parse()
	cfg := wlCfg{
		mixName: *mix, dist: *dist, theta: *theta, mput: *mput,
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
// its own process, crashing shards as its stream draws them.
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
	if err := st.runWorkers(cfg.spec, nil); err != nil {
		return err
	}
	return st.finish(cfg.descr(), st.shardCrashLine(),
		"every operation resolved to a definite outcome, zero violations")
}
