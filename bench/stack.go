package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"detectable/internal/client"
	"detectable/internal/durable"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// kvserverd's default geometry: every register pays for N = 8 processes
// whatever the number of load connections. numKeys keys bench-<i> are
// preloaded (the tests run on fewer).
const (
	numShards = 4
	numProcs  = 8
	numKeys   = 4096
)

// preloadBatch is the MPUT size the key space is preloaded with.
const preloadBatch = 64

// node is one served node: an optional durable directory, the store and
// the server in front of it, all in this process.
type node struct {
	dir   string         // "" for a non-durable node
	trace *traceFs       // non-nil on a traced run: times the Fs calls and tracks synced lengths
	db    *durable.DB    // nil for a non-durable node
	store *shardkv.Store // nil on a standby
	srv   *server.Server
}

func (n *node) addr() string { return n.srv.Addr().String() }

// stackConfig says which served stack a workload runs on.
type stackConfig struct {
	durable bool
	replica bool // durable primary plus a sync standby with its own directory
	keys    int
	tmpRoot string    // data directories are created under it
	rec     *recorder // non-nil: open data directories through a traceFs
	// wrapFs, when set, wraps each node's Fs once more before durable sees
	// it; the mutant test uses it to drop fsyncs above the tracer.
	wrapFs func(durable.Fs) durable.Fs
}

// stack is a running served stack with its key space preloaded.
type stack struct {
	primary *node
	standby *node // nil without a replica
	keys    []string
}

// benchKeys returns the key space bench-0 … bench-<n-1>.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-%d", i)
	}
	return keys
}

// openDurableNode creates a fresh data directory and opens it.
func openDurableNode(cfg stackConfig, id uint8) (*node, error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, "data-")
	if err != nil {
		return nil, err
	}
	n := &node{dir: dir}
	fs := durable.OS
	if cfg.rec != nil {
		n.trace = newTraceFs(fs, cfg.rec, id)
		fs = n.trace
	}
	if cfg.wrapFs != nil {
		fs = cfg.wrapFs(fs)
	}
	if n.db, err = durable.OpenFs(fs, dir, numShards, numProcs, server.Window); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// At this commit a compaction writes a corrupt snapshot, which the
	// crash-image check convicts on every run of dur-mix-zipf that reaches one
	// (README, "Defect found"). The benchmark's nodes therefore never compact;
	// the change that fixes durable.journalPut deletes this line.
	n.db.SetCompactThreshold(math.MaxInt64)
	return n, nil
}

// close stops the node and removes its data directory.
func (n *node) close() error {
	var err error
	if n.srv != nil {
		err = n.srv.Close()
	}
	if n.db != nil {
		err = errors.Join(err, n.db.Close())
	}
	if n.dir != "" {
		err = errors.Join(err, os.RemoveAll(n.dir))
	}
	return err
}

// startStack brings the stack up the way kvserverd would — open/recover,
// listen, attach the standby and wait until it is in sync — and preloads
// every key over the wire. What it does is what setup_s times.
func startStack(cfg stackConfig) (st *stack, err error) {
	st = &stack{keys: benchKeys(cfg.keys)}
	defer func() {
		if err != nil {
			st.close() //nolint:errcheck // the start error is the one to report
			st = nil
		}
	}()

	p := &node{}
	opts := []shardkv.Option{}
	if cfg.durable || cfg.replica {
		if p, err = openDurableNode(cfg, 0); err != nil {
			return st, err
		}
		opts = append(opts, shardkv.Durable(p.db))
	}
	st.primary = p
	p.store = shardkv.New(numShards, numProcs, opts...)
	p.srv = server.New(p.store)
	if p.db != nil {
		if err = p.srv.AttachDurable(p.db); err != nil {
			return st, err
		}
		p.db.StartGroupCommit(0)
	}
	if err = p.srv.Listen("127.0.0.1:0"); err != nil {
		return st, err
	}

	if cfg.replica {
		var s *node
		if s, err = openDurableNode(cfg, 1); err != nil {
			return st, err
		}
		st.standby = s
		s.srv = server.NewStandby(s.db, func() *shardkv.Store {
			return shardkv.New(numShards, numProcs, shardkv.Durable(s.db))
		})
		s.db.StartGroupCommit(0)
		if err = s.srv.StartReplication(p.addr()); err != nil {
			return st, err
		}
		if err = s.srv.Listen("127.0.0.1:0"); err != nil {
			return st, err
		}
		if err = st.waitSynced(10 * time.Second); err != nil {
			return st, err
		}
	}

	if err = st.preload(); err != nil {
		return st, err
	}
	if cfg.replica {
		err = st.waitSynced(10 * time.Second)
	}
	return st, err
}

// preload writes every key once, as writer 0, in MPUT batches.
func (st *stack) preload() error {
	c, err := client.Dial(st.primary.addr())
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // a session that wrote every key has nothing left to lose
	entries := make([]shardkv.KV, 0, preloadBatch)
	for lo := 0; lo < len(st.keys); lo += preloadBatch {
		entries = entries[:0]
		for i := lo; i < min(lo+preloadBatch, len(st.keys)); i++ {
			entries = append(entries, shardkv.KV{Key: st.keys[i], Val: encodeVal(0, i, 1)})
		}
		outs, err := c.MultiPut(entries)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for _, out := range outs {
			if !out.Status.Linearized() {
				return fmt.Errorf("preload: a write returned %v", out.Status)
			}
		}
	}
	return nil
}

// waitSynced blocks until the standby has acked every barrier the primary
// staged and its read view has applied them.
func (st *stack) waitSynced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		seq, acked, subs := st.primary.db.ReplStatus()
		if subs >= 1 && seq > 0 && acked >= seq && st.standby.db.ViewSeq() >= seq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby not in sync after %v: seq=%d acked=%d subs=%d applied=%d",
				timeout, seq, acked, subs, st.standby.db.ViewSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops both nodes (standby first, so the primary never waits on a
// vanished ack) and removes their directories.
func (st *stack) close() error {
	var err error
	if st.standby != nil {
		err = st.standby.close()
	}
	if st.primary != nil {
		err = errors.Join(err, st.primary.close())
	}
	return err
}
