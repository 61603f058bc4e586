package simio

// Crash-prefix model-checking of the replication APPLY path: a warm
// standby's data directory is written by Replica.Apply rather than by the
// commit protocol, and PR 9's claim is that it satisfies the exact same
// invariants — any crash prefix of the backup's disk recovers, never
// shows an outcome without its effect, preserves every barrier-acked
// verdict, and recovers purely and idempotently (durable.StateHash).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"detectable/internal/durable"
)

// sessRecEnd is the end record's kind as it appears inside ReplLog
// messages. Mirrored here because the on-disk kinds are internal to
// durable; they are a stable format (docs/DURABILITY.md).
const sessRecEnd = 0x04

// eachRec calls fn for every record a ReplLog message carries; other
// messages carry none.
func eachRec(m []byte, fn func(rec []byte)) {
	if m[0] != durable.ReplLog {
		return
	}
	for b := m[1:]; len(b) > 0; {
		n := 8 + int(binary.BigEndian.Uint32(b))
		fn(b[8:n])
		b = b[n:]
	}
}

// replStep is one anchoring operation of the replicated workload: the
// primary's journal length around it, what it put on the stream and the
// write it committed, if any.
type replStep struct {
	pre, post int
	msgs      [][]byte
	written   []Verdict
}

// writtenIn returns every write steps committed.
func writtenIn(steps []replStep) (written []Verdict) {
	for _, st := range steps {
		written = append(written, st.written...)
	}
	return written
}

// runReplicatedWorkload drives a primary with a live-tap subscription opened
// before the workload, so the stream carries every record, every barrier and
// every commit mark in commit order, and returns it step by step. Step 0 is
// the (empty) bootstrap.
func runReplicatedWorkload(t *testing.T, cfg SweepConfig) (pfs *Fs, pdb *durable.DB, steps []replStep) {
	t.Helper()
	pfs = New()
	pdb, err := durable.OpenFs(pfs, cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
	if err != nil {
		t.Fatalf("primary open: %v", err)
	}
	sub := pdb.Subscribe(0)
	step := func(op func() error) {
		t.Helper()
		st := replStep{pre: pfs.Ops()}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		st.post = pfs.Ops()
		// Every step stages at least a barrier, so Next does not block.
		chunk, err := sub.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		st.msgs = splitFrames(chunk)
		steps = append(steps, st)
	}
	step(func() error { return nil })
	step(func() error { return pdb.AppendHello(1, 0) })
	step(func() error { return pdb.AppendHello(2, 1) })
	reqs, val := map[uint64]uint64{}, int64(0)
	commit := func(sid uint64, i int) {
		var v Verdict
		step(func() error {
			reqs[sid]++
			v = journalWrite(pdb, cfg, sid, reqs[sid], i, &val)
			return commitWrite(pdb, v)
		})
		steps[len(steps)-1].written = []Verdict{v}
	}
	i := 0
	for ; i < 8; i++ {
		commit(1+uint64(i%2), i)
	}
	step(func() error { return pdb.AppendHello(3, 2) })
	commit(3, i)
	step(func() error { return pdb.AppendEnd(3) })
	sub.Close()
	return pfs, pdb, steps
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

// drainBootstrap subscribes to a quiescent db and returns the bootstrap
// stream a re-connecting standby would receive.
func drainBootstrap(t *testing.T, db *durable.DB) (msgs [][]byte) {
	t.Helper()
	sub := db.Subscribe(0)
	sub.Close()
	for {
		chunk, err := sub.Next()
		if errors.Is(err, io.EOF) {
			return msgs
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		msgs = append(msgs, splitFrames(chunk)...)
	}
}

func TestReplicaApplyCrashPrefixes(t *testing.T) {
	cfg := SweepConfig{Dir: "/data", Shards: 2, Procs: 3, Window: 8, Keys: 2}
	_, pdb, steps := runReplicatedWorkload(t, cfg)
	written := writtenIn(steps)

	// Backup: apply the stream, tracking each verdict's release point in
	// the BACKUP's journal — a verdict counts as released (ackable) only
	// once its barrier's Apply returned, and a session's END could reach
	// the medium from the moment its barrier's Apply began.
	bfs := New()
	bdb, err := durable.OpenFs(bfs, cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
	if err != nil {
		t.Fatalf("backup open: %v", err)
	}
	rep := bdb.NewReplica()
	var rel, pending []Verdict
	endPending := map[uint64]bool{}
	for _, st := range steps {
		pending = append(pending, st.written...)
		for _, m := range st.msgs {
			eachRec(m, func(rec []byte) {
				if rec[0] == sessRecEnd {
					endPending[binary.BigEndian.Uint64(rec[1:])] = true
				}
			})
			preOps := bfs.Ops()
			_, barrier, err := rep.Apply(m)
			if err != nil {
				t.Fatalf("Apply (kind 0x%02x): %v", m[0], err)
			}
			if !barrier {
				continue
			}
			at := bfs.Ops()
			for j := range pending {
				pending[j].ReleasedAt = at
			}
			rel = append(rel, pending...)
			pending = pending[:0]
			for sid := range endPending {
				for j := range rel {
					if rel[j].SID == sid && rel[j].EndedAt == math.MaxInt {
						rel[j].EndedAt = preOps
					}
				}
				delete(endPending, sid)
			}
		}
	}
	if got, want := bdb.StateHash(), pdb.StateHash(); got != want {
		t.Fatalf("backup hash %s, primary %s", got, want)
	}
	if err := bdb.Close(); err != nil {
		t.Fatalf("backup close: %v", err)
	}
	pdb.Close()

	// Sweep every crash point of the backup's journal through the standard
	// image checks.
	journal := bfs.Journal()
	if len(journal) == 0 {
		t.Fatal("backup journaled nothing; the apply path is not under test")
	}
	images := 0
	for k := 0; k <= len(journal); k++ {
		must := mustSurvive(rel, k)
		EnumerateImages(journal, k, RecordAwareCuts, 6, func(img Image) bool {
			images++
			if detail := checkImage(cfg, img, written, must); detail != "" {
				t.Errorf("backup crash point %d: %s", k, detail)
				return false
			}
			return true
		})
		if t.Failed() {
			break
		}
	}
	t.Logf("backup journal: %d ops, %d images checked", len(journal), images)
}

// standbyAheadSweep model-checks the state the overlapped epoch adds: the
// standby has anchored and acknowledged BARRIER(N) while the primary's disk
// is any crash prefix before its own fsync of N. At every such point it
// checks that standby readers were shown nothing the primary's disk lacks,
// and then both ways the story can continue:
//
//   - the standby is promoted: every crash image of its disk at that point
//     recovers with N's verdict and effect both present, and no outcome
//     without its effect;
//   - the primary restarts from each admissible image of its disk and
//     bootstraps the standby again: afterwards the two hold the same
//     sessions (no stale outcome) and the same keys (absent ≡ 0; no key the
//     primary lacks), the view shows the primary's state, and every crash
//     prefix of what the re-bootstrap wrote on the standby still recovers
//     with no outcome above a lost effect.
//
// Violations go to report.
func standbyAheadSweep(t *testing.T, report func(format string, args ...any)) {
	t.Helper()
	cfg := SweepConfig{Dir: "/data", Shards: 2, Procs: 3, Window: 8, Keys: 2}
	pfs, pdb, steps := runReplicatedWorkload(t, cfg)
	pdb.Close()
	pjournal, written := pfs.Journal(), writtenIn(steps)

	open := func(fsim *Fs) *durable.DB {
		t.Helper()
		db, err := durable.OpenFs(fsim, cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	apply := func(rep *durable.Replica, m []byte) bool {
		t.Helper()
		_, barrier, err := rep.Apply(m)
		if err != nil {
			t.Fatalf("Apply (kind 0x%02x): %v", m[0], err)
		}
		return barrier
	}
	// standbyThrough returns a fresh standby that applied the stream up to
	// and including step n's barrier, and nothing behind it.
	standbyThrough := func(n int) (*Fs, *durable.DB) {
		bfs := New()
		bdb := open(bfs)
		rep := bdb.NewReplica()
		for _, st := range steps[:n] {
			for _, m := range st.msgs {
				apply(rep, m)
			}
		}
		for _, m := range steps[n].msgs {
			apply(rep, m)
			if m[0] == durable.ReplBarrier {
				break
			}
		}
		return bfs, bdb
	}
	// sameKeys reports every key that reads differently through a and b,
	// a missing key reading as zero.
	sameKeys := func(when string, a, b func(shard int, key string) (int64, bool), dbs ...*durable.DB) {
		for shard := 0; shard < cfg.Shards; shard++ {
			keys := map[string]bool{}
			for _, db := range dbs {
				db.RangeShard(shard, func(key string, _ int64) { keys[key] = true })
			}
			for key := range keys {
				av, _ := a(shard, key)
				bv, _ := b(shard, key)
				if av != bv {
					report("%s: %s reads %d and %d", when, key, av, bv)
				}
			}
		}
	}

	// The main line: one standby applies the whole stream.
	bfs := New()
	bdb := open(bfs)
	rep := bdb.NewReplica()
	var rel []Verdict
	for n, st := range steps {
		rel = append(rel, st.written...)
		for _, m := range st.msgs {
			eachRec(m, func(rec []byte) {
				if rec[0] != sessRecEnd {
					return
				}
				for j := range rel {
					if rel[j].SID == binary.BigEndian.Uint64(rec[1:]) {
						rel[j].EndedAt = 0
					}
				}
			})
			if !apply(rep, m) || m[0] != durable.ReplBarrier {
				continue
			}
			seq := binary.BigEndian.Uint64(m[1:])
			when := fmt.Sprintf("step %d, barrier %d acknowledged, before the primary's commit mark", n, seq)

			// What a standby reader sees is what the primary's disk holds
			// before its fsync of this epoch.
			disk := open(FromImage(DurableImage(pjournal, st.pre)))
			if bdb.ViewSeq() >= seq {
				report("%s: the view's applied mark is already %d", when, bdb.ViewSeq())
			}
			sameKeys(when+": standby view vs primary disk", bdb.ViewGet, disk.MirrorGet, bdb, disk)
			disk.Close()

			// Continuation A: promote the standby from its disk as it is.
			must := mustSurvive(rel, bfs.Ops())
			EnumerateImages(bfs.Journal(), bfs.Ops(), RecordAwareCuts, 6, func(img Image) bool {
				if detail := checkImage(cfg, img, written, must); detail != "" {
					report("%s: promoted standby: %s", when, detail)
				}
				return true
			})

			// Continuation B: the primary crashes before its fsync of this
			// epoch returns, restarts, and bootstraps the standby again.
			for k := st.pre; k < st.post; k++ {
				if pjournal[k].Kind == OpFsync {
					break // past here the epoch is on the primary's disk
				}
				EnumerateImages(pjournal, k+1, RecordAwareCuts, 8, func(img Image) bool {
					rpdb := open(FromImage(img))
					snap := drainBootstrap(t, rpdb)
					sfs, sdb := standbyThrough(n)
					from := sfs.Ops()
					rep2, acked := sdb.NewReplica(), false
					for _, m := range snap {
						acked = apply(rep2, m) || acked
					}
					then := fmt.Sprintf("%s, primary restarted from crash point %d and bootstrapped the standby again", when, k+1)
					if !acked {
						report("%s: the bootstrap's barrier never acknowledged", then)
					}
					sameKeys(then+": primary vs standby", rpdb.MirrorGet, sdb.MirrorGet, rpdb, sdb)
					sameKeys(then+": primary vs standby view", rpdb.MirrorGet, sdb.ViewGet, rpdb, sdb)
					if ps, ss := rpdb.Sessions(), sdb.Sessions(); !reflect.DeepEqual(ps, ss) {
						report("%s: sessions differ: primary %+v, standby %+v", then, ps, ss)
					}
					if committed, _, _ := rpdb.ReplStatus(); sdb.ViewSeq() > committed {
						report("%s: applied mark %d is past the primary's committed mark %d", then, sdb.ViewSeq(), committed)
					}
					sdb.Close()
					rpdb.Close()
					sjournal := sfs.Journal()
					for kk := from; kk <= len(sjournal); kk++ {
						EnumerateImages(sjournal, kk, RecordAwareCuts, 4, func(img Image) bool {
							if detail := checkImage(cfg, img, written, nil); detail != "" {
								report("%s: standby crash point %d: %s", then, kk, detail)
							}
							return true
						})
					}
					return true
				})
			}
		}
	}
	bdb.Close()
}

// TestStandbyAheadCrashPrefixes: the overlapped epoch is safe at every
// point where the standby is ahead of the primary's disk.
func TestStandbyAheadCrashPrefixes(t *testing.T) {
	standbyAheadSweep(t, t.Errorf)
}

// TestStandbyAheadSweepConvictsPublishAtBarrier is the test of the test: a
// replica that publishes an epoch at its barrier, without waiting for the
// primary's commit mark, shows readers values the primary's disk lacks, and
// the sweep must say so.
func TestStandbyAheadSweepConvictsPublishAtBarrier(t *testing.T) {
	durable.MutantPublishAtBarrier = true
	defer func() { durable.MutantPublishAtBarrier = false }()
	var convictions []string
	standbyAheadSweep(t, func(format string, args ...any) {
		convictions = append(convictions, fmt.Sprintf(format, args...))
	})
	if len(convictions) == 0 {
		t.Fatal("publish-at-barrier mutant survived the standby-ahead sweep undetected")
	}
	for _, c := range convictions {
		if strings.Contains(c, "standby view vs primary disk") {
			return
		}
	}
	t.Fatalf("mutant convicted, but not for showing readers what the primary's disk lacks: %s", convictions[0])
}

// TestBootstrapCrashImages: a standby holding a primary's workload receives
// the bootstrap of another state. At every crash point of the install — the
// temporary file's create, write and fsync, the rename, the directory sync —
// its disk recovers to the state it held before or to the bootstrap's, never
// a mix; and no acknowledgement leaves before the directory sync: from the
// point the barrier is acknowledged on, every image recovers the bootstrap.
func TestBootstrapCrashImages(t *testing.T) {
	cfg := SweepConfig{Dir: "/data", Shards: 2, Procs: 3, Window: 8, Keys: 2}
	open := func(fsim *Fs) *durable.DB {
		t.Helper()
		db, err := durable.OpenFs(fsim, cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	_, pdb, steps := runReplicatedWorkload(t, cfg)
	pdb.Close()
	bfs := New()
	bdb := open(bfs)
	rep := bdb.NewReplica()
	for _, st := range steps {
		for _, m := range st.msgs {
			if _, _, err := rep.Apply(m); err != nil {
				t.Fatalf("Apply (kind 0x%02x): %v", m[0], err)
			}
		}
	}
	before := bdb.StateHash()

	// Another primary's state: other keys, another session.
	qdb := open(New())
	if err := qdb.AppendHello(7, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		qdb.ShardBacking(i%cfg.Shards).Persist(fmt.Sprintf("other-%d", i), int64(100+i))
	}
	if err := qdb.CommitOutcome(7, 1, []byte("other-5=105")); err != nil {
		t.Fatal(err)
	}
	boot := drainBootstrap(t, qdb)
	after := qdb.StateHash()
	qdb.Close()
	if before == after {
		t.Fatal("the bootstrap's state is the one the standby holds; nothing to tell apart")
	}

	from, ackAt := bfs.Ops(), -1
	rep = bdb.NewReplica()
	for _, m := range boot {
		_, barrier, err := rep.Apply(m)
		if err != nil {
			t.Fatalf("Apply (kind 0x%02x): %v", m[0], err)
		}
		if barrier {
			ackAt = bfs.Ops()
		}
	}
	if ackAt < 0 {
		t.Fatal("the bootstrap's barrier was never acknowledged")
	}
	if got := bdb.StateHash(); got != after {
		t.Fatalf("the live standby holds %s after the bootstrap, want %s", got, after)
	}
	bdb.Close()

	journal := bfs.Journal()
	seen := map[OpKind]bool{}
	for _, op := range journal[from:ackAt] {
		seen[op.Kind] = true
	}
	for _, k := range []OpKind{OpCreate, OpWrite, OpFsync, OpRename, OpSyncDir} {
		if !seen[k] {
			t.Fatalf("the install did no %v before its acknowledgement", k)
		}
	}
	images := 0
	for k := from; k <= ackAt; k++ {
		EnumerateImages(journal, k, RecordAwareCuts, 8, func(img Image) bool {
			images++
			db, err := durable.OpenFs(FromImage(img), cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
			if err != nil {
				t.Errorf("crash point %d: open: %v", k, err)
				return false
			}
			got := db.StateHash()
			db.Close()
			switch {
			case got == after:
			case got == before && k < ackAt:
			case got == before:
				t.Errorf("crash point %d: the barrier is acknowledged and the disk recovers the state before the bootstrap", k)
			default:
				t.Errorf("crash point %d: recovered %s, neither the state before the bootstrap nor the bootstrap's", k, got)
			}
			return true
		})
	}
	t.Logf("install: %d ops, %d images checked", ackAt-from, images)
}
