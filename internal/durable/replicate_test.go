package durable_test

// External-package tests for the replication stream (replicate.go): the
// internal durable tests cannot import internal/simio (simio itself
// imports durable), so the tests that model backup crashes with the
// simulated filesystem live here, against the public API only.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// ackBootstrap acks sub's bootstrap barrier, which engages its commit
// gating. Call it right after Subscribe: until the next commit, ReplStatus's
// seq is that barrier.
func ackBootstrap(db *durable.DB, sub *durable.ReplSub) {
	seq, _, _ := db.ReplStatus()
	sub.Ack(seq)
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
	sub := pdb.Subscribe(0)
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
// whole state arrives as a bootstrap, and checks that it replaces what the
// backup held: a session the backup still believes live but the primary
// has ended must be gone.
func TestReplicationSnapshotResync(t *testing.T) {
	pdb := openSim(t, simio.New())
	sub1 := pdb.Subscribe(0)
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

	// Reconnect: bootstrap-only stream (no records tapped after Close).
	sub2 := pdb.Subscribe(0)
	sub2.Close()
	snap := drain(t, sub2)
	applyAll(t, bdb.NewReplica(), snap)
	if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
		t.Fatalf("after resync: backup %s, primary %s", got, want)
	}
	for _, s := range bdb.Sessions() {
		if s.SID == 2 {
			t.Fatalf("session 2 still live on the backup after the bootstrap")
		}
	}
	// Idempotence of the bootstrap itself.
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
// re-synced from a fresh primary bootstrap must converge to the primary's
// StateHash — and applying the resync bootstrap twice must change nothing.
// Cuts inside a frame equal the previous frame boundary by construction
// (the wire delivers whole frames or nothing), so sweeping frame
// boundaries covers every byte.
func TestReplicationKillAtEveryFrame(t *testing.T) {
	pdb := openSim(t, simio.New())
	sub := pdb.Subscribe(0)
	workload(t, pdb)
	sub.Close()
	msgs := drain(t, sub)
	want := pdb.StateHash()

	// One resync bootstrap reused for every cut: the primary is quiescent,
	// so each subscription would stage identical state.
	rsub := pdb.Subscribe(0)
	rsub.Close()
	resync := drain(t, rsub)

	for cut := 0; cut <= len(msgs); cut++ {
		bfs := simio.New()
		bdb := openSim(t, bfs)
		applyAll(t, bdb.NewReplica(), msgs[:cut])
		// Crash the backup: recovery must accept whatever prefix its own
		// log holds (torn tails truncate, records whose barrier never came
		// never reached the medium).
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
// subscriber has acknowledged its bootstrap barrier, a commit does
// not return until the commit's barrier is acknowledged; acking (or
// closing the subscription) releases it.
func TestSyncAckGatesCommit(t *testing.T) {
	db := openSim(t, simio.New())
	defer db.Close()
	sub := db.Subscribe(0)
	defer sub.Close()
	ackBootstrap(db, sub) // bootstrap complete: the sub gates from here on

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
	sub2 := db.Subscribe(0)
	ackBootstrap(db, sub2)
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
	sub := db.Subscribe(0)
	ackBootstrap(db, sub) // bootstrapped, then never acks again

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
// subscriber that has not yet acknowledged its bootstrap barrier
// neither delays commits nor gets dropped as a laggard — a replica whose
// bootstrap transfer outlives the ack timeout must stay attached and become
// the commit gate only once its bootstrap ack arrives.
func TestBootstrappingSubscriberDoesNotGate(t *testing.T) {
	db := openSim(t, simio.New())
	defer db.Close()
	db.SetReplAckTimeout(100 * time.Millisecond)
	sub := db.Subscribe(0) // bootstrap staged, nothing acked yet
	boot, _, _ := db.ReplStatus()
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

	// Acking the bootstrap barrier engages the gate: the next commit blocks
	// until its own barrier is acked.
	sub.Ack(boot)
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
// the subscriber's backlog limit: the bootstrap must stage in full (exempt
// from the limit) and replicate a converged backup, where before the
// exemption the subscription tore itself down mid-bootstrap and every
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

	const limit = 1 << 10 // far below the staged bootstrap's size
	sub := pdb.Subscribe(limit)
	sub.Close()
	msgs := drain(t, sub)
	if n := len(msgs); n < 4 || msgs[n-2][0] != durable.ReplBarrier || msgs[n-1][0] != durable.ReplCommit {
		t.Fatalf("the bootstrap did not stage to completion: %d messages", len(msgs))
	}

	bdb := openSim(t, simio.New())
	defer bdb.Close()
	applyAll(t, bdb.NewReplica(), msgs)
	if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
		t.Fatalf("backup hash %s, primary %s", got, want)
	}
}

// Session record kinds of the write-ahead log — a stable on-disk format
// (docs/DURABILITY.md), mirrored here to craft streams by hand.
const (
	sessRecHello   = 0x02
	sessRecOutcome = 0x03
	recPutAt       = 0x06
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// logMsg returns a ReplLog message carrying recs, framed as the log frames
// them.
func logMsg(recs ...[]byte) []byte {
	msg := []byte{durable.ReplLog}
	for _, rec := range recs {
		msg = binary.BigEndian.AppendUint32(msg, uint32(len(rec)))
		msg = binary.BigEndian.AppendUint32(msg, crc32.Checksum(rec, castagnoli))
		msg = append(msg, rec...)
	}
	return msg
}

func snapBegin(gen uint64, shards uint32) []byte {
	msg := make([]byte, 21)
	msg[0] = durable.ReplSnapBegin
	binary.BigEndian.PutUint64(msg[1:], gen)
	binary.BigEndian.PutUint32(msg[9:], shards)
	binary.BigEndian.PutUint32(msg[13:], testProcs)
	binary.BigEndian.PutUint32(msg[17:], testWindow)
	return msg
}

func seqMsg(kind byte, seq uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{kind}, seq)
}

// TestBootstrapInstalledAtItsBarrier: a bootstrap replaces the standby's
// state at its barrier and not before. A standby that crashes with the
// bootstrap's records received and its barrier not recovers what it held;
// one that has acknowledged the barrier recovers the bootstrap and nothing
// of what it held before.
func TestBootstrapInstalledAtItsBarrier(t *testing.T) {
	hello := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{sessRecHello}, 9), 0)
	outcome := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{sessRecOutcome}, 9), 1)
	outcome = append(binary.BigEndian.AppendUint32(outcome, 7), "verdict"...)
	boot := [][]byte{snapBegin(0, testShards), logMsg(hello, outcome)}
	apply := func(rep *durable.Replica, msg []byte) (uint64, bool) {
		t.Helper()
		seq, b, err := rep.Apply(msg)
		if err != nil {
			t.Fatalf("Apply (kind 0x%02x): %v", msg[0], err)
		}
		return seq, b
	}

	// The standby holds a primary's workload, then receives a bootstrap of
	// a different state and crashes before its barrier.
	pdb := openSim(t, simio.New())
	live := pdb.Subscribe(0)
	workload(t, pdb)
	live.Close()
	pdb.Close()
	fsim := simio.New()
	bdb := openSim(t, fsim)
	applyAll(t, bdb.NewReplica(), drain(t, live))
	before := bdb.StateHash()
	rep := bdb.NewReplica()
	for _, m := range boot {
		if seq, b := apply(rep, m); b {
			t.Fatalf("a bootstrap record was acknowledged (seq=%d)", seq)
		}
	}
	if err := bdb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	bdb = openSim(t, fsim)
	if got := bdb.StateHash(); got != before {
		t.Fatalf("a crash before the bootstrap's barrier recovered %s, want the state before it %s", got, before)
	}

	// The whole bootstrap, barrier included.
	rep = bdb.NewReplica()
	for _, m := range boot {
		apply(rep, m)
	}
	if seq, b := apply(rep, seqMsg(durable.ReplBarrier, 2)); !b || seq != 2 {
		t.Fatalf("bootstrap barrier: seq=%d barrier=%v, want 2/true", seq, b)
	}
	check := func(db *durable.DB, when string) {
		t.Helper()
		ss := db.Sessions()
		if len(ss) != 1 || ss[0].SID != 9 || string(ss[0].Reply(1)) != "verdict" {
			t.Fatalf("%s: sessions %+v, want exactly sid 9 holding its verdict", when, ss)
		}
		for i := 0; i < testShards; i++ {
			db.RangeShard(i, func(key string, val int64) {
				t.Fatalf("%s: shard %d holds %s=%d, which the bootstrap does not", when, i, key, val)
			})
		}
	}
	check(bdb, "after the barrier")
	if err := bdb.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	bdb = openSim(t, fsim)
	defer bdb.Close()
	check(bdb, "after a crash")
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

	rep := db.NewReplica()
	if _, _, err := rep.Apply(snapBegin(1, testShards)); !errors.Is(err, durable.ErrStalePrimary) {
		t.Fatalf("stale primary (gen 1 < 2) accepted: err=%v", err)
	}
	// A newer primary advances the replica's own fencing generation.
	if _, _, err := rep.Apply(snapBegin(5, testShards)); err != nil {
		t.Fatalf("newer primary refused: %v", err)
	}
	if g := db.Generation(); g != 5 {
		t.Fatalf("replica generation = %d after a gen-5 bootstrap, want 5", g)
	}
}

// TestReplicaRejectsGeometryMismatch: a bootstrap whose shard/proc/window
// geometry differs from the backup's must be refused before any record
// applies.
func TestReplicaRejectsGeometryMismatch(t *testing.T) {
	db := openSim(t, simio.New())
	defer db.Close()
	if _, _, err := db.NewReplica().Apply(snapBegin(0, testShards+1)); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// widenLastPut returns a copy of msgs in which the last put-at record, which
// no later put overwrites, carries a value outside the register domain of a
// testProcs-process store ([−2^60, 2^60)) — bit 62 of its 8-byte value, the
// record's tail, is set, and its frame's CRC is the one for the new bytes —
// and the index of the message carrying it.
func widenLastPut(msgs [][]byte) (out [][]byte, at int) {
	out = append([][]byte{}, msgs...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i][0] != durable.ReplLog {
			continue
		}
		last := -1 // offset of the last put-at frame in the message
		for off := 1; off < len(out[i]); off += 8 + int(binary.BigEndian.Uint32(out[i][off:])) {
			if out[i][off+8] == recPutAt {
				last = off
			}
		}
		if last < 0 {
			continue
		}
		w := append([]byte(nil), out[i]...)
		rec := w[last+8 : last+8+int(binary.BigEndian.Uint32(w[last:]))]
		rec[len(rec)-8] ^= 0x40
		binary.BigEndian.PutUint32(w[last+4:], crc32.Checksum(rec, castagnoli))
		out[i] = w
		return out, i
	}
	panic("stream holds no put-at record")
}

// TestReplicaRefusesOutOfDomainValue: a replicated put whose value no
// register of the store can hold (from a primary built before the domain
// was enforced, or a malformed stream) is refused before it is journaled,
// so the standby's directory still opens.
func TestReplicaRefusesOutOfDomainValue(t *testing.T) {
	pdb := openSim(t, simio.New())
	live := pdb.Subscribe(0)
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

// TestCompactionShipsStagedPuts: a compaction first syncs the puts staged
// since the last barrier (syncStaged), and their batch goes to the tap as an
// epoch's does, so a standby that applies the stream of a primary compacting
// all the time still holds every one of them.
func TestCompactionShipsStagedPuts(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pdb := openSim(t, simio.New())
	defer pdb.Close()
	pdb.SetCompactThreshold(256)
	sub := pdb.Subscribe(0)
	must(pdb.AppendHello(1, 0))
	for i := 0; i < 48; i++ {
		pdb.ShardBacking(i%testShards).Persist(fmt.Sprintf("staged-%d", i), int64(i+1))
		if i%3 == 0 {
			must(pdb.Compact()) // with the put staged
		}
		must(pdb.CommitOutcome(1, uint64(i+1), []byte("ok")))
	}
	sub.Close()

	bdb := openSim(t, simio.New())
	defer bdb.Close()
	applyAll(t, bdb.NewReplica(), drain(t, sub))
	for i := 0; i < 48; i++ {
		key := fmt.Sprintf("staged-%d", i)
		if v, ok := bdb.MirrorGet(i%testShards, key); !ok || v != int64(i+1) {
			t.Errorf("the standby holds %s=%d (ok=%v), the primary %d", key, v, ok, i+1)
		}
	}
	if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
		t.Fatalf("standby hash %s, primary %s", got, want)
	}
}

// TestLargeBatchSplitsAtRecords: an epoch, and a bootstrap, larger than a
// stream message reach the standby as several ReplLog messages, each
// within MaxReplMsg (the wire's frame limit) and cut between records, and
// the standby converges.
func TestLargeBatchSplitsAtRecords(t *testing.T) {
	pdb := openSim(t, simio.New())
	defer pdb.Close()
	sub := pdb.Subscribe(0)
	long := fmt.Sprintf("%01000d", 0)
	for i := 0; i < 1500; i++ { // 1.5 MB of records in one batch
		pdb.ShardBacking(i%testShards).Persist(fmt.Sprintf("%s-%d", long, i), int64(i))
	}
	if err := pdb.Sync(); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	boot := pdb.Subscribe(0)
	boot.Close()
	for name, msgs := range map[string][][]byte{"epoch": drain(t, sub), "bootstrap": drain(t, boot)} {
		logs := 0
		for _, m := range msgs {
			if len(m) > durable.MaxReplMsg {
				t.Fatalf("%s: a %d-byte stream message, past the %d-byte limit", name, len(m), durable.MaxReplMsg)
			}
			if m[0] == durable.ReplLog {
				logs++
			}
		}
		if logs < 2 {
			t.Fatalf("%s: %d ReplLog messages, want the batch split", name, logs)
		}
		bdb := openSim(t, simio.New())
		applyAll(t, bdb.NewReplica(), msgs)
		if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
			t.Fatalf("%s: standby hash %s, primary %s", name, got, want)
		}
		bdb.Close()
	}
}

// TestBootstrapDropsChainedSubscribers: a standby whose log a bootstrap
// replaces drops its own subscribers with an error, so they bootstrap again
// from the new log instead of following a stream the old one began.
func TestBootstrapDropsChainedSubscribers(t *testing.T) {
	pdb := openSim(t, simio.New())
	defer pdb.Close()
	workload(t, pdb)
	boot := pdb.Subscribe(0)
	boot.Close()

	bdb := openSim(t, simio.New())
	defer bdb.Close()
	chained := bdb.Subscribe(0)
	applyAll(t, bdb.NewReplica(), drain(t, boot))
	if _, _, subs := bdb.ReplStatus(); subs != 0 {
		t.Fatalf("%d subscribers still attached to the bootstrapped standby", subs)
	}
	for { // what was staged drains first, then the close shows
		if _, err := chained.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				t.Fatal("the chained subscription closed cleanly; want the bootstrap's error")
			}
			break
		}
	}
}
