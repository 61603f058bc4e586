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
// one, or a fresh exactly-once execution when it had not. The bar is
// unchanged: zero detectability violations, now across whole-process
// crash/restart boundaries.
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

	// The storm (see schedule): SIGKILL the server mid-workload and restart
	// it from the same data directory; -restarts 0 kills nothing, a spawned
	// durable server under load.
	if restarts == 0 {
		restartEvery = 0
	}
	if err := st.runWorkers(cfg.spec, func(deadline time.Time) (int, error) {
		return schedule("restart", deadline, restartEvery, restarts, func(int) error { return cluster.Restart() })
	}); err != nil {
		return err
	}
	return st.finish("restart-storm: "+cfg.descr(),
		fmt.Sprintf("across %d SIGKILL/restart cycles", st.cycles),
		"every operation resolved to a definite outcome across whole-process restarts, zero violations",
		require(st.cycles >= restarts, "only %d restart cycles completed (wanted ≥ %d)", st.cycles, restarts))
}
