package main

import (
	"fmt"
	"time"

	"detectable/internal/client"
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
	if restarts < 0 {
		return fmt.Errorf("need -restarts ≥ 0 (got %d)", restarts)
	}
	// Workers: one durable session each, redial policy sized to out-wait a
	// full kill+restart cycle.
	st, cluster, done, err := spawn(cfg, "restart-storm", bin, dataDir, 0, false,
		fmt.Sprintf("restarts≥%d every=%s", restarts, restartEvery),
		func(addrs []string) (*client.Client, error) {
			c, err := client.Dial(addrs[0])
			if err == nil {
				c.SetRedialPolicy(300, 100*time.Millisecond)
			}
			return c, err
		})
	if err != nil {
		return err
	}
	defer done(&err)

	// The storm: SIGKILL the server mid-workload and restart it from the
	// same data directory. It keeps killing until both the duration has
	// elapsed and the minimum cycle count is met, so short -dur values still
	// deliver the contracted restarts; -restarts 0 kills nothing, a spawned
	// durable server under load.
	cycles := 0
	if err := st.runWorkers(cfg.spec, func(deadline time.Time) error {
		for restarts > 0 {
			time.Sleep(restartEvery)
			if time.Now().After(deadline) && cycles >= restarts {
				return nil
			}
			if err := cluster.Restart(); err != nil {
				return fmt.Errorf("restart %d: %w", cycles+1, err)
			}
			cycles++
		}
		time.Sleep(time.Until(deadline))
		return nil
	}); err != nil {
		return err
	}

	return st.finish(func() {
		fmt.Printf("restart-storm: %s elapsed=%s\n", cfg.descr(cfg.shards), st.elapsed.Round(time.Millisecond))
		fmt.Printf("aggregate: %d ops (%.0f ops/sec) across %d SIGKILL/restart cycles, %d session resumes\n",
			st.ops.Load(), float64(st.ops.Load())/st.elapsed.Seconds(), cycles, st.resumes())
	}, "every operation resolved to a definite outcome across whole-process restarts, zero violations",
		require(cycles >= restarts, "only %d restart cycles completed (wanted ≥ %d)", cycles, restarts))
}
