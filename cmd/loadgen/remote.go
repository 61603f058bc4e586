package main

import (
	"fmt"

	"detectable/internal/client"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// runRemote is run over the wire: the same mixes and the same per-key
// verification, but every operation travels through a client session to a
// live kvserverd, and the crash-storm mix additionally severs worker
// connections so session resumption is exercised under load.
func runRemote(addr string, cfg *wlCfg) error {
	if addr == "self" {
		srv := server.New(shardkv.New(cfg.shards, cfg.procs))
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer srv.Close()
		addr = srv.Addr().String()
		fmt.Printf("self-hosted server: addr=%s shards=%d procs=%d\n", addr, cfg.shards, cfg.procs)
	}

	// An observer session (no process slot) for the stats window and, in
	// between, the shard-crash storm.
	obs, err := client.DialObserver(addr)
	if err != nil {
		return fmt.Errorf("dial observer: %w", err)
	}
	defer obs.Close()
	before, err := obs.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	numShards := len(before) // the server's real shard count, whatever -shards says

	st, err := dialStorm(cfg, func() (*client.Client, error) { return client.Dial(addr) })
	if err != nil {
		return err
	}
	if err := st.runWorkers(cfg.spec, shardCrashes(cfg, numShards, obs.CrashShard)); err != nil {
		return err
	}
	// Snapshot the measured window now: the verification sweep in finish is
	// bookkeeping, not serving (mirrors the in-process run).
	after, err := obs.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	snaps := make([]shardkv.StatsSnapshot, numShards)
	for i := range snaps {
		snaps[i] = after[i].Sub(before[i])
	}
	return st.finish(func() {
		report(snaps, cfg, st.elapsed)
		fmt.Printf("sessions:  workers=%d connection-resumes=%d\n", cfg.procs, st.resumes())
	}, "every operation resolved to a definite outcome across reconnects, zero violations")
}
