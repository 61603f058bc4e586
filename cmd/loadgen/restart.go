package main

import (
	"fmt"
	"time"

	"detectable/internal/client"
	"detectable/internal/harness"
)

// runRestartStorm is the whole-process crash mode: it launches a real
// kvserverd binary with a durable -data directory, drives the usual
// verified workload over TCP, and meanwhile repeatedly SIGKILLs the server
// and restarts it from the same directory. Workers ride the kills on the
// client's session-resume path: after each restart they reconnect, resume
// their (durably recovered) session and re-issue the in-flight request ID —
// receiving the original persisted verdict when the server had released
// one, or a fresh exactly-once execution when it had not. The bar is unchanged from every other mix: zero detectability
// violations, now across whole-process crash/restart boundaries.
func runRestartStorm(bin, dataDir string, cfg *wlCfg,
	restarts int, restartEvery time.Duration) (err error) {
	if restarts < 1 {
		return fmt.Errorf("need -restarts ≥ 1 (got %d)", restarts)
	}
	if dataDir, err = serverFlags("restart-storm", bin, dataDir); err != nil {
		return err
	}
	fmt.Printf("restart-storm: data=%s server=%s restarts≥%d every=%s\n", dataDir, bin, restarts, restartEvery)
	cluster, err := harness.Start(harness.Config{
		Name: "restart-storm", Bin: bin, Dir: dataDir,
		Shards: cfg.shards, Procs: cfg.procs,
	}, false)
	if err != nil {
		return err
	}
	defer cluster.Close(&err)
	addr, _ := cluster.Addrs()

	// Workers: one durable session each, redial policy sized to out-wait a
	// full kill+restart cycle.
	st, err := dialStorm(cfg, func() (*client.Client, error) {
		c, err := client.Dial(addr)
		if err == nil {
			c.SetRedialPolicy(300, 100*time.Millisecond)
		}
		return c, err
	})
	if err != nil {
		return err
	}

	// The storm: SIGKILL the server mid-workload and restart it from the
	// same data directory. It keeps killing until both the duration has
	// elapsed and the minimum cycle count is met, so short -dur values still
	// deliver the contracted restarts.
	cycles := 0
	if err := st.runWorkers(cfg.spec, func(deadline time.Time) error {
		for {
			time.Sleep(restartEvery)
			if time.Now().After(deadline) && cycles >= restarts {
				return nil
			}
			if err := cluster.Restart(); err != nil {
				return fmt.Errorf("restart %d: %w", cycles+1, err)
			}
			cycles++
		}
	}); err != nil {
		return err
	}

	return st.finish(func() {
		fmt.Printf("restart-storm: %s elapsed=%s\n", cfg.descr(cfg.shards), st.elapsed.Round(time.Millisecond))
		fmt.Printf("aggregate: %d ops (%.0f ops/sec) across %d SIGKILL/restart cycles, %d session resumes\n",
			st.ops.Load(), float64(st.ops.Load())/st.elapsed.Seconds(), cycles, st.resumes())
		if cfg.verbose {
			fmt.Printf("data dir: %s (kept for inspection)\n", dataDir)
		}
		st.closeClients()
	}, "every operation resolved to a definite outcome across whole-process restarts, zero violations",
		require(cycles >= restarts, "only %d restart cycles completed (wanted ≥ %d)", cycles, restarts))
}
