package durable_test

import (
	"bytes"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/simio"
)

// crashImage is the disk a node leaves when it dies now: what its barriers
// wrote, nothing it only staged.
func crashImage(t *testing.T, fsim *simio.Fs) *durable.DB {
	t.Helper()
	return openSim(t, simio.FromImage(fsim.LiveImage()))
}

// replyOf returns the reply session sid's recovered window holds for req.
func replyOf(db *durable.DB, sid, req uint64) []byte {
	for _, s := range db.Sessions() {
		if s.SID == sid {
			return s.Reply(req)
		}
	}
	return nil
}

// TestStampedPutIsItsVerdict: a PUT and a DEL that linearized journal one
// put-at record each, stamped with the request and its verdict, and a bare
// barrier makes them durable. Recovery rebuilds the reply the server
// released, byte for byte — after a restart, on the node's own mirror,
// through a compaction that took the records' stamps off (the record still
// staged, or durable already), and on a standby.
func TestStampedPutIsItsVerdict(t *testing.T) {
	put := runtime.Outcome[int]{Status: runtime.StatusOK}
	del := runtime.Outcome[int]{Status: runtime.StatusRecovered, Crashes: 1}
	for _, compact := range []string{"none", "staged", "durable"} {
		fsim := simio.New()
		db := openSim(t, fsim)
		must(t, db.AppendHello(1, 2))
		sub := db.Subscribe(0)
		db.BeginRequest(2, 5)
		db.ShardBacking(0).Journal("k", 100, nvm.Stamp{PID: 2, Status: int(put.Status)})
		must(t, db.Sync())
		db.BeginRequest(2, 6)
		db.ShardBacking(0).Journal("k", 0, nvm.Stamp{PID: 2, Status: int(del.Status), Crashes: del.Crashes})
		if compact == "durable" {
			must(t, db.Sync())
		}
		if compact != "none" {
			must(t, db.Compact())
		}
		must(t, db.Sync())
		sub.Close()
		msgs := drain(t, sub)
		for name, rdb := range map[string]*durable.DB{"live": db, "recovered": crashImage(t, fsim), "standby": standbyFed(t, msgs)} {
			for req, out := range map[uint64]runtime.Outcome[int]{5: put, 6: del} {
				if got, want := replyOf(rdb, 1, req), durable.AppendReply(nil, out); !bytes.Equal(got, want) {
					t.Errorf("compaction %s, %s: request %d's verdict is %x, want %x", compact, name, req, got, want)
				}
			}
			if v, _ := rdb.MirrorGet(0, "k"); v != 0 {
				t.Errorf("compaction %s, %s: k = %d, want 0", compact, name, v)
			}
			if rdb != db {
				rdb.Close()
			}
		}
		db.Close()
	}
}

// standbyFed returns a standby's DB that applied msgs, a primary's stream.
func standbyFed(t *testing.T, msgs [][]byte) *durable.DB {
	t.Helper()
	db := openSim(t, simio.New())
	rep := db.NewReplica()
	for _, m := range msgs {
		if _, _, err := rep.Apply(m); err != nil {
			t.Fatalf("standby Apply: %v", err)
		}
	}
	return db
}

// TestTornMPutRebuildsPerEntryVerdict: an MPUT of 5 whose entry 2 failed
// journals entries 0, 1 and 3, each stamped with its index and the batch's
// length, and then its outcome record. Cut off before the outcome record,
// recovery — on the node and on a standby fed the same stream — answers the
// stamped entries' verdicts and failed for the rest, five verdicts; cut off
// before entry 3's record as well, entry 3 is failed too; whole, the outcome
// record stands.
func TestTornMPutRebuildsPerEntryVerdict(t *testing.T) {
	ok := runtime.Outcome[int]{Status: runtime.StatusOK}
	rec := runtime.Outcome[int]{Status: runtime.StatusRecovered, Crashes: 2}
	failed := runtime.Outcome[int]{Status: runtime.StatusFailed}
	released := []runtime.Outcome[int]{ok, rec, {Status: runtime.StatusFailed, Crashes: 1}, ok, {Status: runtime.StatusFailed, Crashes: 1}}
	for _, c := range []struct {
		name   string
		synced int // entries made durable ahead of the crash
		commit bool
		want   []runtime.Outcome[int]
	}{
		{"outcome record torn off", 3, false, []runtime.Outcome[int]{ok, rec, failed, ok, failed}},
		{"entry 3 torn off too", 2, false, []runtime.Outcome[int]{ok, rec, failed, failed, failed}},
		{"outcome record survived", 3, true, released},
	} {
		fsim := simio.New()
		db := openSim(t, fsim)
		must(t, db.AppendHello(1, 0))
		sub := db.Subscribe(0)
		db.BeginRequest(0, 9)
		for i, e := range []struct {
			entry int
			out   runtime.Outcome[int]
		}{{0, ok}, {1, rec}, {3, ok}} {
			db.ShardBacking(e.entry%testShards).Journal(string(rune('a'+e.entry)), 9, nvm.Stamp{Status: int(e.out.Status), Crashes: e.out.Crashes, Entry: e.entry, Batch: 5})
			if i+1 == c.synced {
				must(t, db.Sync())
			}
		}
		if c.commit {
			must(t, db.CommitOutcome(1, 9, durable.AppendBatchReply(nil, released)))
		}
		sub.Close()
		msgs := drain(t, sub)
		want := durable.AppendBatchReply(nil, c.want)
		for name, rdb := range map[string]*durable.DB{"recovered": crashImage(t, fsim), "standby": standbyFed(t, msgs)} {
			if got := replyOf(rdb, 1, 9); !bytes.Equal(got, want) {
				t.Errorf("%s, %s: MPUT verdict %x, want %x", c.name, name, got, want)
			}
			rdb.Close()
		}
		db.Close()
	}
}

// TestStampWithoutHelloIsIgnored: a stamp whose process no hello ahead of
// it leased belongs to no session: its put is recovered, its verdict goes
// nowhere.
func TestStampWithoutHelloIsIgnored(t *testing.T) {
	fsim := simio.New()
	db := openSim(t, fsim)
	must(t, db.AppendHello(1, 0))
	db.BeginRequest(3, 4)
	db.ShardBacking(1).Journal("orphan", 7, nvm.Stamp{PID: 3, Status: int(runtime.StatusOK)})
	must(t, db.Sync())
	rdb := crashImage(t, fsim)
	defer rdb.Close()
	if v, ok := rdb.MirrorGet(1, "orphan"); !ok || v != 7 {
		t.Fatalf("orphan = %d (%v), want 7", v, ok)
	}
	for _, s := range rdb.Sessions() {
		if len(s.Window) != 0 {
			t.Fatalf("session %d holds %d verdicts, want none", s.SID, len(s.Window))
		}
	}
	db.Close()
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
