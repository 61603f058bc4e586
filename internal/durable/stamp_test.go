package durable_test

import (
	"bytes"
	"fmt"
	"testing"

	"detectable/internal/durable"
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

// TestStampedPutIsItsVerdict: a write journals a put-at record per
// linearized entry, stamped with the request and its verdict, and commits
// its reply as the server does — by a bare barrier where the stamps carry
// it (durable.StampsCarry), as its outcome record otherwise. A PUT, a DEL
// and an MPUT of 16 whose entries all linearized write no outcome record; a
// failed DEL and an MPUT with a failed entry write exactly one; an empty
// MPUT writes nothing and leaves no verdict, so its re-send runs fresh to
// the same three bytes. Recovery rebuilds the reply the server released,
// byte for byte — after a restart, on the node's own mirror, through a
// compaction that took the records' stamps off (the records still staged,
// or durable already), and on a standby, the node a promotion serves from.
func TestStampedPutIsItsVerdict(t *testing.T) {
	ok := runtime.Outcome[int]{Status: runtime.StatusOK}
	rec := runtime.Outcome[int]{Status: runtime.StatusRecovered, Crashes: 1}
	failed := runtime.Outcome[int]{Status: runtime.StatusFailed, Crashes: 1}
	var mput16 []runtime.Outcome[int]
	for e := range 16 {
		mput16 = append(mput16, []runtime.Outcome[int]{ok, rec}[e%2])
	}
	for _, c := range []struct {
		name     string
		outs     []runtime.Outcome[int] // the reply's verdicts, an MPUT's by entry
		mput     bool
		val      int64 // what each linearized entry writes
		outcomes int   // outcome records the commit writes
	}{
		{"PUT", []runtime.Outcome[int]{ok}, false, 100, 0},
		{"DEL", []runtime.Outcome[int]{rec}, false, 0, 0},
		{"failed DEL", []runtime.Outcome[int]{failed}, false, 0, 1},
		{"MPUT×16", mput16, true, 7, 0},
		{"MPUT with a failed entry", []runtime.Outcome[int]{ok, failed, rec}, true, 7, 1},
		{"empty MPUT", nil, true, 0, 0},
	} {
		var reply []byte
		if c.mput {
			reply = durable.AppendBatchReply(nil, c.outs)
		} else {
			reply = durable.AppendReply(nil, c.outs[0])
		}
		want := reply
		if len(c.outs) == 0 {
			want = nil // no verdict held: the re-send runs fresh
		}
		for _, compact := range []string{"none", "staged", "durable"} {
			name := c.name + ", compaction " + compact
			fsim := simio.New()
			db := openSim(t, fsim)
			must(t, db.AppendHello(1, 2))
			sub := db.Subscribe(0)
			db.BeginRequest(2, 5)
			for e, out := range c.outs {
				if stamp := (durable.Stamp{PID: 2, Status: int(out.Status), Crashes: out.Crashes}); out.Status.Linearized() {
					if c.mput {
						stamp.Entry, stamp.Batch = e, len(c.outs)
					}
					db.ShardBacking(e%testShards).Journal(fmt.Sprint("k", e), c.val, stamp)
				}
			}
			if compact == "staged" {
				must(t, db.Compact())
			}
			if durable.StampsCarry(reply) {
				must(t, db.Sync())
			} else {
				must(t, db.CommitOutcome(1, 5, reply))
			}
			if compact == "durable" {
				must(t, db.Compact())
			}
			if n := outcomeRecords(t, fsim); compact == "none" && n != c.outcomes {
				t.Errorf("%s: the commit wrote %d outcome records, want %d", name, n, c.outcomes)
			}
			sub.Close()
			msgs := drain(t, sub)
			for node, rdb := range map[string]*durable.DB{"live": db, "recovered": crashImage(t, fsim), "standby": standbyFed(t, msgs)} {
				if got := replyOf(rdb, 1, 5); !bytes.Equal(got, want) {
					t.Errorf("%s, %s: the verdict is %x, want %x", name, node, got, want)
				}
				for e, out := range c.outs {
					if v, in := rdb.MirrorGet(e%testShards, fmt.Sprint("k", e)); out.Status.Linearized() && (!in || v != c.val) {
						t.Errorf("%s, %s: k%d = %d, want %d", name, node, e, v, c.val)
					}
				}
				if rdb != db {
					rdb.Close()
				}
			}
			db.Close()
		}
	}
}

// outcomeRecords counts the outcome records fsim's write-ahead log holds.
func outcomeRecords(t *testing.T, fsim *simio.Fs) (n int) {
	t.Helper()
	l, err := durable.OpenLogFs(simio.FromImage(fsim.LiveImage()), "/data/wal.log", func(rec []byte) error {
		if rec[0] == 0x03 { // the outcome record's kind (docs/DURABILITY.md)
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return n
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
			db.ShardBacking(e.entry%testShards).Journal(string(rune('a'+e.entry)), 9, durable.Stamp{Status: int(e.out.Status), Crashes: e.out.Crashes, Entry: e.entry, Batch: 5})
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
	db.ShardBacking(1).Journal("orphan", 7, durable.Stamp{PID: 3, Status: int(runtime.StatusOK)})
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
