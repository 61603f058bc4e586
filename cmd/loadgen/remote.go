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

	// An observer session (no process slot): one STATS reply tells the
	// workers the server's real shard count, whatever -shards says.
	obs, err := client.DialObserver(addr)
	if err != nil {
		return fmt.Errorf("dial observer: %w", err)
	}
	snaps, err := obs.Stats()
	obs.Close() //nolint:errcheck // its one question is answered
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	cfg.shards = len(snaps)

	st, err := dialStorm(cfg, func() (*client.Client, error) { return client.Dial(addr) })
	if err != nil {
		return err
	}
	if err := st.runWorkers(cfg.spec, nil); err != nil {
		return err
	}
	return st.finish(cfg.descr(), st.shardCrashLine(),
		"every operation resolved to a definite outcome across reconnects, zero violations")
}
