package durable_test

// External-package tests for the replication stream (replicate.go): the
// internal durable tests cannot import internal/simio (simio itself
// imports durable), so the tests that model backup crashes with the
// simulated filesystem live here, against the public API only.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"detectable/internal/durable"
	"detectable/internal/simio"
)

const (
	testShards = 2
	testProcs  = 4
	testWindow = 8
)

func openSim(t testing.TB, fsim *simio.Fs) *durable.DB {
	t.Helper()
	db, err := durable.OpenFs(fsim, "/data", testShards, testProcs, testWindow)
	if err != nil {
		t.Fatalf("OpenFs: %v", err)
	}
	return db
}

// workload drives a representative mix through db: two long-lived
// sessions committing puts across both shards, an observer-ID burn, and
// a third session that ends durably.
func workload(t testing.TB, db *durable.DB) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
	}
	must(db.AppendHello(1, 0))
	must(db.AppendHello(2, 1))
	reqs := map[uint64]uint64{}
	commit := func(sid uint64, i int) {
		shard := i % testShards
		key := fmt.Sprintf("s%d-k%d", shard, i%3)
		val := int64(i + 1)
		db.ShardBacking(shard).Persist(key, val)
		reqs[sid]++
		must(db.CommitOutcome(sid, reqs[sid], []byte(fmt.Sprintf("%s=%d", key, val))))
	}
	for i := 0; i < 12; i++ {
		commit(1+uint64(i%2), i)
	}
	must(db.NoteSID(100))
	must(db.AppendHello(3, 2))
	commit(3, 12)
	must(db.AppendEnd(3))
}

// drain collects the stream staged on a closed (or closing) subscription
// and splits it into messages.
func drain(t testing.TB, sub *durable.ReplSub) [][]byte {
	t.Helper()
	var msgs [][]byte
	for {
		chunk, err := sub.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return msgs
			}
			t.Fatalf("Next: %v", err)
		}
		msgs = append(msgs, splitFrames(chunk)...)
	}
}

// splitFrames copies the messages out of one chunk of framed stream bytes.
func splitFrames(chunk []byte) (msgs [][]byte) {
	for len(chunk) > 0 {
		n := int(binary.BigEndian.Uint32(chunk))
		msgs = append(msgs, append([]byte(nil), chunk[4:4+n]...))
		chunk = chunk[4+n:]
	}
	return msgs
}

func applyAll(t *testing.T, rep *durable.Replica, msgs [][]byte) {
	t.Helper()
	for i, m := range msgs {
		if _, _, err := rep.Apply(m); err != nil {
			t.Fatalf("Apply msg %d (kind 0x%02x): %v", i, m[0], err)
		}
	}
}

// TestReplicationLiveTapConverges streams a workload through a live tap
// (subscription opened before any record exists) into a backup and pins
// convergence with StateHash; a second full apply of the same stream must
// be a no-op (applies are idempotent).
func TestReplicationLiveTapConverges(t *testing.T) {
	pdb := openSim(t, simio.New())
	sub := pdb.Subscribe(0, false)
	workload(t, pdb)
	sub.Close()
	msgs := drain(t, sub)
	want := pdb.StateHash()

	bfs := simio.New()
	bdb := openSim(t, bfs)
	applyAll(t, bdb.NewReplica(), msgs)
	if got := bdb.StateHash(); got != want {
		t.Fatalf("backup hash %s, primary %s", got, want)
	}
	applyAll(t, bdb.NewReplica(), msgs)
	if got := bdb.StateHash(); got != want {
		t.Fatalf("double apply diverged: %s, want %s", got, want)
	}
	// The backup's own disk holds the same state: recover it fresh.
	if err := bdb.Close(); err != nil {
		t.Fatalf("backup close: %v", err)
	}
	bdb2 := openSim(t, bfs)
	defer bdb2.Close()
	if got := bdb2.StateHash(); got != want {
		t.Fatalf("recovered backup hash %s, want %s", got, want)
	}
}

// TestReplicationSnapshotResync subscribes after the workload ran, so the
// whole state arrives as a fuzzy snapshot, and checks the SnapEnd
// reconciliation: a session the backup still believes live but the
// snapshot no longer asserts must be ended.
func TestReplicationSnapshotResync(t *testing.T) {
	pdb := openSim(t, simio.New())
	sub1 := pdb.Subscribe(0, false)
	workload(t, pdb) // ends session 3
	sub1.Close()

	bdb := openSim(t, simio.New())
	applyAll(t, bdb.NewReplica(), drain(t, sub1))
	if got := bdb.StateHash(); got != pdb.StateHash() {
		t.Fatalf("after live tap: backup %s, primary %s", got, pdb.StateHash())
	}

	// Primary moves on while the backup is disconnected: session 2 ends,
	// new writes land.
	if err := db2More(pdb); err != nil {
		t.Fatal(err)
	}

	// Reconnect: snapshot-only stream (no records tapped after Close).
	sub2 := pdb.Subscribe(0, false)
	sub2.Close()
	snap := drain(t, sub2)
	applyAll(t, bdb.NewReplica(), snap)
	if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
		t.Fatalf("after resync: backup %s, primary %s", got, want)
	}
	for _, s := range bdb.Sessions() {
		if s.SID == 2 {
			t.Fatalf("session 2 still live on the backup after SnapEnd reconciliation")
		}
	}
	// Idempotence of the snapshot itself.
	applyAll(t, bdb.NewReplica(), snap)
	if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
		t.Fatalf("snapshot re-apply diverged: %s, want %s", got, want)
	}
}

func db2More(db *durable.DB) error {
	if err := db.AppendEnd(2); err != nil {
		return err
	}
	db.ShardBacking(0).Persist("post-k", 999)
	return db.CommitOutcome(1, 50, []byte("post-k=999"))
}

// TestReplicationKillAtEveryFrame is the stream-interruption sweep: for
// every prefix of the replication stream, a backup that applied exactly
// that prefix, crashed (close + recover its own data directory) and then
// re-synced from a fresh primary snapshot must converge to the primary's
// StateHash — and applying the resync snapshot twice must change nothing.
// Cuts inside a frame equal the previous frame boundary by construction
// (the wire delivers whole frames or nothing), so sweeping frame
// boundaries covers every byte.
func TestReplicationKillAtEveryFrame(t *testing.T) {
	pdb := openSim(t, simio.New())
	sub := pdb.Subscribe(0, false)
	workload(t, pdb)
	sub.Close()
	msgs := drain(t, sub)
	want := pdb.StateHash()

	// One resync snapshot reused for every cut: the primary is quiescent,
	// so each subscription would stage identical state.
	rsub := pdb.Subscribe(0, false)
	rsub.Close()
	resync := drain(t, rsub)

	for cut := 0; cut <= len(msgs); cut++ {
		bfs := simio.New()
		bdb := openSim(t, bfs)
		applyAll(t, bdb.NewReplica(), msgs[:cut])
		// Crash the backup: recovery must accept whatever prefix its own
		// logs hold (torn tails truncate, staged-but-unbarriered session
		// records never reached the medium).
		if err := bdb.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		bdb = openSim(t, bfs)
		applyAll(t, bdb.NewReplica(), resync)
		if got := bdb.StateHash(); got != want {
			t.Fatalf("cut %d/%d: resynced hash %s, want %s", cut, len(msgs), got, want)
		}
		applyAll(t, bdb.NewReplica(), resync)
		if got := bdb.StateHash(); got != want {
			t.Fatalf("cut %d/%d: duplicate resync diverged to %s, want %s", cut, len(msgs), got, want)
		}
		bdb.Close()
	}
}

// TestSyncAckGatesCommit pins the semi-synchronous contract: once a
// syncAck subscriber has acknowledged its snapshot barrier, a commit does
// not return until the commit's barrier is acknowledged; acking (or
// closing the subscription) releases it.
func TestSyncAckGatesCommit(t *testing.T) {
	db := openSim(t, simio.New())
	defer db.Close()
	sub := db.Subscribe(0, true)
	defer sub.Close()
	sub.Ack(sub.SnapSeq()) // bootstrap complete: the sub gates from here on

	done := make(chan error, 1)
	go func() { done <- db.AppendHello(1, 0) }()
	select {
	case err := <-done:
		t.Fatalf("commit returned before the barrier ack (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	sub.Ack(1 << 60) // past any barrier this test issues
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("AppendHello: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("commit still blocked after the ack")
	}

	// A closed subscription must release waiters too.
	sub2 := db.Subscribe(0, true)
	sub2.Ack(sub2.SnapSeq())
	go func() { done <- db.NoteSID(7) }()
	time.Sleep(20 * time.Millisecond)
	sub2.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("NoteSID: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("commit still blocked after subscription close")
	}
}

// TestSyncAckTimeoutDropsLaggard pins degraded mode: a synchronous
// subscriber that went silent after completing its bootstrap is dropped
// after the ack timeout and the commit completes; the hub forgets the
// laggard.
func TestSyncAckTimeoutDropsLaggard(t *testing.T) {
	db := openSim(t, simio.New())
	defer db.Close()
	db.SetReplAckTimeout(100 * time.Millisecond)
	sub := db.Subscribe(0, true)
	sub.Ack(sub.SnapSeq()) // bootstrapped, then never acks again

	start := time.Now()
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	if e := time.Since(start); e < 80*time.Millisecond {
		t.Fatalf("commit returned in %v — the ack gate never engaged", e)
	}
	if _, _, subs := db.ReplStatus(); subs != 0 {
		t.Fatalf("laggard still registered: subs=%d", subs)
	}
	// Subsequent commits are free again (degraded, not wedged).
	start = time.Now()
	if err := db.NoteSID(9); err != nil {
		t.Fatalf("NoteSID: %v", err)
	}
	if e := time.Since(start); e > 50*time.Millisecond {
		t.Fatalf("post-drop commit took %v, still gated", e)
	}
}

// TestBootstrappingSubscriberDoesNotGate pins the gating threshold: a
// syncAck subscriber that has not yet acknowledged its snapshot barrier
// neither delays commits nor gets dropped as a laggard — a replica whose
// initial snapshot transfer outlives the ack timeout must stay attached
// and become the commit gate only once its SnapEnd ack arrives.
func TestBootstrappingSubscriberDoesNotGate(t *testing.T) {
	db := openSim(t, simio.New())
	defer db.Close()
	db.SetReplAckTimeout(100 * time.Millisecond)
	sub := db.Subscribe(0, true) // snapshot staged, nothing acked yet
	defer sub.Close()

	start := time.Now()
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	if e := time.Since(start); e > 50*time.Millisecond {
		t.Fatalf("commit took %v while the subscriber was still bootstrapping", e)
	}
	if _, _, subs := db.ReplStatus(); subs != 1 {
		t.Fatalf("bootstrapping subscriber was dropped: subs=%d", subs)
	}

	// Acking the snapshot barrier engages the gate: the next commit blocks
	// until its own barrier is acked.
	sub.Ack(sub.SnapSeq())
	done := make(chan error, 1)
	go func() { done <- db.NoteSID(50) }()
	select {
	case err := <-done:
		t.Fatalf("commit returned before the barrier ack (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	sub.Ack(1 << 60)
	if err := <-done; err != nil {
		t.Fatalf("NoteSID: %v", err)
	}
}

// TestSnapshotLargerThanSubLimit pins bootstrap for states bigger than
// the subscriber's backlog limit: the snapshot must stage in full (exempt
// from the limit) and replicate a converged backup, where before the
// exemption the subscription tore itself down mid-snapshot and every
// resync died the same way.
func TestSnapshotLargerThanSubLimit(t *testing.T) {
	pdb := openSim(t, simio.New())
	defer pdb.Close()
	if err := pdb.AppendHello(1, 0); err != nil {
		t.Fatalf("AppendHello: %v", err)
	}
	reply := make([]byte, 256)
	for i := 0; i < 64; i++ {
		pdb.ShardBacking(i%testShards).Persist(fmt.Sprintf("key-%04d", i), int64(i))
		if err := pdb.CommitOutcome(1, uint64(i+1), reply); err != nil {
			t.Fatalf("CommitOutcome: %v", err)
		}
	}

	const limit = 1 << 10 // far below the staged snapshot's size
	sub := pdb.Subscribe(limit, false)
	sub.Close()
	msgs := drain(t, sub)
	var snapEnds int
	for _, m := range msgs {
		if m[0] == durable.ReplSnapEnd {
			snapEnds++
		}
	}
	if snapEnds != 1 {
		t.Fatalf("snapshot did not stage to completion: %d SnapEnd messages in %d", snapEnds, len(msgs))
	}

	bdb := openSim(t, simio.New())
	defer bdb.Close()
	applyAll(t, bdb.NewReplica(), msgs)
	if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
		t.Fatalf("backup hash %s, primary %s", got, want)
	}
}

// Sessions-log record kinds as they ride inside ReplSessRec messages —
// a stable on-disk format (docs/DURABILITY.md), mirrored here to craft
// streams whose interleaving a live primary cannot be forced to produce.
const (
	sessRecHello   = 0x02
	sessRecOutcome = 0x03
)

// TestInSnapshotBarrierDeferred pins the snapshot/barrier interleaving
// rule: a barrier that arrives mid-snapshot must neither anchor the staged
// records nor be acked — the staged outcomes may precede their snapshot
// hellos, and anchoring them hello-less writes records recovery silently
// drops, so a crash-then-promote would lose a verdict the primary believed
// durable on both nodes. Everything defers to SnapEnd.
func TestInSnapshotBarrierDeferred(t *testing.T) {
	snapBegin := func(gen uint64) []byte {
		msg := make([]byte, 21)
		msg[0] = durable.ReplSnapBegin
		binary.BigEndian.PutUint64(msg[1:], gen)
		binary.BigEndian.PutUint32(msg[9:], testShards)
		binary.BigEndian.PutUint32(msg[13:], testProcs)
		binary.BigEndian.PutUint32(msg[17:], testWindow)
		return msg
	}
	barrier := func(kind byte, seq uint64) []byte {
		msg := make([]byte, 9)
		msg[0] = kind
		binary.BigEndian.PutUint64(msg[1:], seq)
		return msg
	}
	hello := func(sid uint64, pid int64) []byte {
		msg := []byte{durable.ReplSessRec, sessRecHello}
		msg = binary.BigEndian.AppendUint64(msg, sid)
		return binary.BigEndian.AppendUint64(msg, uint64(pid))
	}
	outcome := func(sid, req uint64, reply string) []byte {
		msg := []byte{durable.ReplSessRec, sessRecOutcome}
		msg = binary.BigEndian.AppendUint64(msg, sid)
		msg = binary.BigEndian.AppendUint64(msg, req)
		msg = binary.BigEndian.AppendUint32(msg, uint32(len(reply)))
		return append(msg, reply...)
	}
	apply := func(rep *durable.Replica, msg []byte) (uint64, bool) {
		t.Helper()
		seq, b, err := rep.Apply(msg)
		if err != nil {
			t.Fatalf("Apply (kind 0x%02x): %v", msg[0], err)
		}
		return seq, b
	}

	// The primary taps an outcome for sid 9 while the snapshot is still in
	// its shard section (sid 9's hello arrives only in the later sessions
	// section), then an epoch barrier for it.
	fsim := simio.New()
	bdb := openSim(t, fsim)
	rep := bdb.NewReplica()
	apply(rep, snapBegin(0))
	apply(rep, outcome(9, 1, "verdict"))
	if seq, b := apply(rep, barrier(durable.ReplBarrier, 1)); b {
		t.Fatalf("mid-snapshot barrier anchored and acked (seq=%d)", seq)
	}
	// Crash before SnapEnd: the deferred records must not be on disk.
	if err := bdb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	bdb = openSim(t, fsim)
	if n := len(bdb.Sessions()); n != 0 {
		t.Fatalf("crash mid-snapshot recovered %d sessions, want 0", n)
	}

	// Re-sync with the same interleaving carried through SnapEnd: the
	// barrier is still deferred, and SnapEnd anchors tapped outcome and
	// snapshot hello together.
	rep = bdb.NewReplica()
	apply(rep, snapBegin(0))
	apply(rep, outcome(9, 1, "verdict"))
	if _, b := apply(rep, barrier(durable.ReplBarrier, 1)); b {
		t.Fatal("mid-snapshot barrier acked on re-sync")
	}
	apply(rep, hello(9, 0))
	apply(rep, outcome(9, 1, "verdict"))
	seq, b := apply(rep, barrier(durable.ReplSnapEnd, 2))
	if !b || seq != 2 {
		t.Fatalf("SnapEnd: seq=%d barrier=%v, want 2/true", seq, b)
	}
	check := func(db *durable.DB, when string) {
		t.Helper()
		ss := db.Sessions()
		if len(ss) != 1 || ss[0].SID != 9 {
			t.Fatalf("%s: sessions %+v, want exactly sid 9", when, ss)
		}
		if got := string(ss[0].Window[1]); got != "verdict" {
			t.Fatalf("%s: window[1] = %q, want %q", when, got, "verdict")
		}
	}
	check(bdb, "after SnapEnd")
	// The verdict the SnapEnd ack promised survives a crash + promotion.
	if err := bdb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	bdb = openSim(t, fsim)
	defer bdb.Close()
	check(bdb, "after crash")
}

// TestGenerationFencing pins the fencing arithmetic: generations only
// advance, survive reopen, and a replica refuses a stream whose primary
// announces a generation below its own.
func TestGenerationFencing(t *testing.T) {
	fsim := simio.New()
	db := openSim(t, fsim)
	if g := db.Generation(); g != 0 {
		t.Fatalf("fresh generation = %d, want 0", g)
	}
	if err := db.SetGeneration(2); err != nil {
		t.Fatalf("SetGeneration(2): %v", err)
	}
	if err := db.SetGeneration(1); err == nil {
		t.Fatal("SetGeneration(1) after 2 succeeded; fencing rolled back")
	}
	if err := db.SetGeneration(2); err != nil {
		t.Fatalf("SetGeneration(2) re-assert: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db = openSim(t, fsim)
	defer db.Close()
	if g := db.Generation(); g != 2 {
		t.Fatalf("generation after reopen = %d, want 2", g)
	}

	snapBegin := func(gen uint64) []byte {
		msg := make([]byte, 21)
		msg[0] = durable.ReplSnapBegin
		binary.BigEndian.PutUint64(msg[1:], gen)
		binary.BigEndian.PutUint32(msg[9:], testShards)
		binary.BigEndian.PutUint32(msg[13:], testProcs)
		binary.BigEndian.PutUint32(msg[17:], testWindow)
		return msg
	}
	rep := db.NewReplica()
	if _, _, err := rep.Apply(snapBegin(1)); !errors.Is(err, durable.ErrStalePrimary) {
		t.Fatalf("stale primary (gen 1 < 2) accepted: err=%v", err)
	}
	// A newer primary advances the replica's own fencing generation.
	if _, _, err := rep.Apply(snapBegin(5)); err != nil {
		t.Fatalf("newer primary refused: %v", err)
	}
	if g := db.Generation(); g != 5 {
		t.Fatalf("replica generation = %d after gen-5 snapshot, want 5", g)
	}
}

// TestReplicaRejectsGeometryMismatch: a snapshot whose shard/proc/window
// geometry differs from the backup's must be refused before any record
// applies.
func TestReplicaRejectsGeometryMismatch(t *testing.T) {
	db := openSim(t, simio.New())
	defer db.Close()
	msg := make([]byte, 21)
	msg[0] = durable.ReplSnapBegin
	binary.BigEndian.PutUint32(msg[9:], testShards+1)
	binary.BigEndian.PutUint32(msg[13:], testProcs)
	binary.BigEndian.PutUint32(msg[17:], testWindow)
	if _, _, err := db.NewReplica().Apply(msg); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// widenLastPut returns a copy of msgs whose last shard record, which no
// later put overwrites, carries a value outside the register domain of a
// testProcs-process store ([−2^60, 2^60)): bit 62 of its 8-byte value, the
// message's tail, is set.
func widenLastPut(msgs [][]byte) (out [][]byte, at int) {
	out = append([][]byte{}, msgs...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i][0] == durable.ReplShardRec {
			w := append([]byte(nil), out[i]...)
			w[len(w)-8] ^= 0x40
			out[i] = w
			return out, i
		}
	}
	panic("stream holds no shard record")
}

// TestReplicaRefusesOutOfDomainValue: a replicated put whose value no
// register of the store can hold (from a primary built before the domain
// was enforced, or a malformed stream) is refused before it is journaled,
// so the standby's directory still opens.
func TestReplicaRefusesOutOfDomainValue(t *testing.T) {
	pdb := openSim(t, simio.New())
	live := pdb.Subscribe(0, false)
	workload(t, pdb)
	live.Close()
	msgs, at := widenLastPut(drain(t, live))
	pdb.Close()

	fsim := simio.New()
	db := openSim(t, fsim)
	rep := db.NewReplica()
	applyAll(t, rep, msgs[:at])
	if _, _, err := rep.Apply(msgs[at]); err == nil {
		t.Fatal("a replicated value outside the register domain was accepted")
	}
	for _, m := range msgs[at+1:] { // a standby drops the stream here; a later barrier must not anchor the wide put either
		rep.Apply(m)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	openSim(t, fsim).Close()
}
