package durable_test

// A replicated epoch's two fsyncs overlap (DB.anchor streams the epoch
// before its own fsync), so the standby can hold — durably, acknowledged —
// an epoch the primary's disk does not have yet, or never will. These tests
// hold the primary's fsync open with a gate and check the two things that
// must stay true there: the standby's read view never shows what the
// primary's disk lacks, and a primary that lost the epoch and came back
// takes the standby with it at the next bootstrap.

import (
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/simio"
)

// gateFs is a simulated filesystem whose write-ahead-log fsync can be held
// open: while armed, Sync reports on entered and then blocks on release
// before it reaches the medium.
type gateFs struct {
	*simio.Fs
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateFs() *gateFs {
	return &gateFs{Fs: simio.New(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFs) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := g.Fs.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != "wal.log" {
		return f, err
	}
	return gateFile{File: f, g: g}, nil
}

type gateFile struct {
	durable.File
	g *gateFs
}

func (f gateFile) Sync() error {
	if f.g.armed.Load() {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// crashFs returns a filesystem holding what is durable on fsim right now —
// the image a crash at this instant leaves with no unsynced byte written
// back.
func crashFs(fsim *simio.Fs) *simio.Fs {
	journal := fsim.Journal()
	return simio.FromImage(simio.DurableImage(journal, len(journal)))
}

// pump applies everything staged on sub to rep and returns how many
// barriers rep acknowledged. The caller knows the stream is not empty (Next
// would block).
func pump(t *testing.T, sub *durable.ReplSub, rep *durable.Replica) (acks int) {
	t.Helper()
	chunk, err := sub.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	for _, m := range splitFrames(chunk) {
		_, barrier, err := rep.Apply(m)
		if err != nil {
			t.Fatalf("Apply (kind 0x%02x): %v", m[0], err)
		}
		if barrier {
			acks++
		}
	}
	return acks
}

// TestViewNeverAheadOfPrimaryFsync: whatever a standby reader can see must
// be on the primary's disk. A put journaled while an epoch's fsync is in
// flight is not in that epoch's batch, so it must not become visible with
// that epoch — and the epoch itself, anchored and acknowledged on the
// standby while the primary's fsync is still running, must not be visible
// before the primary's commit mark.
func TestViewNeverAheadOfPrimaryFsync(t *testing.T) {
	g := newGateFs()
	pdb, err := durable.OpenFs(g, "/data", testShards, testProcs, testWindow)
	if err != nil {
		t.Fatalf("OpenFs: %v", err)
	}
	defer pdb.Close()
	sub := pdb.Subscribe(0)
	defer sub.Close()
	bdb := openSim(t, simio.New())
	defer bdb.Close()
	rep := bdb.NewReplica()

	probes := []struct {
		shard int
		key   string
	}{{0, "k"}, {1, "p"}}
	check := func(when string) {
		t.Helper()
		disk := openSim(t, crashFs(g.Fs))
		defer disk.Close()
		for _, pr := range probes {
			seen, ok := bdb.ViewGet(pr.shard, pr.key)
			if !ok {
				continue
			}
			if onDisk, _ := disk.MirrorGet(pr.shard, pr.key); onDisk != seen {
				t.Fatalf("%s: a standby reader sees %s=%d, the primary's crash image holds %d",
					when, pr.key, seen, onDisk)
			}
		}
		if committed, _, _ := pdb.ReplStatus(); bdb.ViewSeq() > committed {
			t.Fatalf("%s: standby applied mark %d is past the primary's committed mark %d",
				when, bdb.ViewSeq(), committed)
		}
	}

	if err := pdb.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	pump(t, sub, rep)
	check("after the hello")

	// Epoch N: k=1 and its outcome. The primary's fsync of it is held open.
	g.armed.Store(true)
	pdb.ShardBacking(0).Persist("k", 1)
	done := make(chan error, 1)
	go func() { done <- pdb.CommitOutcome(1, 1, []byte("k=1")) }()
	<-g.entered
	// p lands while N's fsync is in flight: it is in N+1's batch.
	pdb.ShardBacking(1).Persist("p", 7)
	pump(t, sub, rep)
	check("during the primary's fsync")

	g.armed.Store(false)
	g.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("CommitOutcome: %v", err)
	}
	pump(t, sub, rep)
	check("after epoch N")
	if v, ok := bdb.ViewGet(0, "k"); !ok || v != 1 {
		t.Fatalf("after epoch N: view k=%d (ok=%v), want 1", v, ok)
	}

	// The next epoch carries p.
	if err := pdb.Sync(); err != nil {
		t.Fatal(err)
	}
	pump(t, sub, rep)
	check("after epoch N+1")
	if v, ok := bdb.ViewGet(1, "p"); !ok || v != 7 {
		t.Fatalf("after epoch N+1: view p=%d (ok=%v), want 7", v, ok)
	}
}

// TestBootstrapReplacesStandbyState: the standby anchors an epoch — a bumped
// value, a new key, a new outcome — that the primary then loses by crashing
// before its own fsync returns. When the restarted primary bootstraps the
// standby again, the bootstrap must leave the two nodes equal: every key
// reads the same (absent ≡ 0) and the sessions match, live and after
// reopening each data directory. Otherwise a later promotion replays a
// verdict whose effect the bootstrap overwrote, or serves a value no
// linearized write produced.
func TestBootstrapReplacesStandbyState(t *testing.T) {
	g := newGateFs()
	pdb, err := durable.OpenFs(g, "/data", testShards, testProcs, testWindow)
	if err != nil {
		t.Fatalf("OpenFs: %v", err)
	}
	sub := pdb.Subscribe(0)
	bfs := simio.New()
	bdb := openSim(t, bfs)
	rep := bdb.NewReplica()

	if err := pdb.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := pdb.AppendHello(2, 1); err != nil {
		t.Fatal(err)
	}
	pdb.ShardBacking(0).Persist("k", 1)
	if err := pdb.CommitOutcome(1, 1, []byte("k=1")); err != nil {
		t.Fatal(err)
	}
	pump(t, sub, rep)

	// The epoch the primary will lose.
	g.armed.Store(true)
	pdb.ShardBacking(0).Persist("k", 2)
	pdb.ShardBacking(1).Persist("n", 5)
	done := make(chan error, 1)
	go func() { done <- pdb.CommitOutcome(1, 2, []byte("n=5")) }()
	<-g.entered
	if acks := pump(t, sub, rep); acks != 1 {
		t.Fatalf("standby acknowledged %d barriers while the primary's fsync was held, want 1", acks)
	}
	if _, ok := bdb.ViewGet(1, "n"); ok {
		t.Fatal("the uncommitted epoch's new key is visible to standby readers")
	}
	if v, _ := bdb.ViewGet(0, "k"); v != 1 {
		t.Fatalf("view k=%d while the epoch bumping it is uncommitted, want 1", v)
	}

	// Crash the primary here and restart it from its disk.
	pfs2 := crashFs(g.Fs)
	g.armed.Store(false)
	g.release <- struct{}{}
	<-done
	sub.Close()
	pdb.Close()
	pdb2 := openSim(t, pfs2)
	if v, ok := pdb2.MirrorGet(1, "n"); ok {
		t.Fatalf("restarted primary holds n=%d: the test's crash did not lose the epoch", v)
	}

	sub2 := pdb2.Subscribe(0)
	sub2.Close()
	rep2 := bdb.NewReplica()
	acked := false
	for _, m := range drain(t, sub2) {
		_, barrier, err := rep2.Apply(m)
		if err != nil {
			t.Fatalf("Apply (kind 0x%02x): %v", m[0], err)
		}
		acked = acked || barrier
	}
	if !acked {
		t.Fatal("re-bootstrap never acknowledged its barrier")
	}

	same := func(when string, p, b *durable.DB) {
		t.Helper()
		for i := 0; i < testShards; i++ {
			keys := map[string]bool{}
			p.RangeShard(i, func(key string, _ int64) { keys[key] = true })
			b.RangeShard(i, func(key string, _ int64) { keys[key] = true })
			for key := range keys {
				pv, _ := p.MirrorGet(i, key)
				bv, _ := b.MirrorGet(i, key)
				if pv != bv {
					t.Errorf("%s: %s reads %d on the primary, %d on the standby", when, key, pv, bv)
				}
			}
		}
		if ps, bs := p.Sessions(), b.Sessions(); !reflect.DeepEqual(ps, bs) {
			t.Errorf("%s: sessions differ:\nprimary %+v\nstandby %+v", when, ps, bs)
		}
	}
	same("after the bootstrap ack", pdb2, bdb)
	if _, ok := bdb.ViewGet(1, "n"); ok {
		t.Error("after the bootstrap ack: the lost epoch's key is visible to standby readers")
	}
	if v, _ := bdb.ViewGet(0, "k"); v != 1 {
		t.Errorf("after the bootstrap ack: view k=%d, want 1", v)
	}

	if err := pdb2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bdb.Close(); err != nil {
		t.Fatal(err)
	}
	pdb3, bdb3 := openSim(t, pfs2), openSim(t, bfs)
	defer pdb3.Close()
	defer bdb3.Close()
	same("after reopening both directories", pdb3, bdb3)
}
