package server

import (
	"strings"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
	"detectable/internal/simio"
)

// TestKnownHole1AResendAnswersFailedOverItsEffect is the deterministic form
// of the storms' one rare trace (docs/DURABILITY.md §"Open:", ROADMAP item
// 1, Stage A):
//
//	PUT 100 → ok / DEL → failed (crashes 1) / GET → 0
//
// A real server on the simulated filesystem serves PUT k := 100 and then a
// DEL of k whose crash plan lands after line 7 of the write, so the DEL
// linearizes, is recovered and journaled. The machine dies with the DEL's
// batch torn at a record boundary: the put-at record k := 0 reached the
// disk, the outcome record behind it did not, and no reply was ever sent.
// A server recovered from that image restores k = 0, the client resumes its
// session and re-sends the same bytes, the recovered session has no verdict
// for the ID and runs it as fresh, and this time the write stores the triple
// the restored register already holds — value 0, process 0, toggle 0 — so
// when the same plan crashes it after line 7, recovery finds R unchanged and
// honestly answers failed. The client is told "not linearized" over an
// effect that is there.
//
// The hole is open, so the test skips when the trace reproduces and fails
// when it does not: the change that closes Stage A deletes the skip, turns
// the expectations into "the re-sent DEL answers ok", and removes the
// "Open:" section. ci.yml's must-convict step requires the skip line.
func TestKnownHole1AResendAnswersFailedOverItsEffect(t *testing.T) {
	const (
		key = "k"
		// Announce is three primitives and line 7 of Write the seventh after
		// them: a crash before primitive 11 lands just behind the store to R.
		planAfterLine7 = 11
	)
	serve := func(fsim *simio.Fs, addr string) (*durable.DB, *Server) {
		db, err := durable.OpenFs(fsim, "/data", 2, 2, Window)
		if err != nil {
			t.Fatalf("durable.OpenFs(sim): %v", err)
		}
		srv := New(shardkv.New(2, 2, shardkv.Durable(db)))
		if err := srv.AttachDurable(db); err != nil {
			t.Fatalf("AttachDurable: %v", err)
		}
		if err := srv.Listen(addr); err != nil {
			t.Fatalf("Listen: %v", err)
		}
		return db, srv
	}
	outcome := func(reply []byte) runtime.Outcome[int] {
		r := NewReader(reply)
		if code := r.U8(); code != StatusOK {
			t.Fatalf("request refused: code %d %q", code, r.Key())
		}
		return r.Outcome()
	}
	del := AppendDel(nil, 2, planAfterLine7, key)

	fsim := simio.New()
	addr := reserveAddr(t)
	db, srv := serve(fsim, addr)
	rc := dialRaw(t, addr)
	sid, _ := rc.hello(t, 0)
	if out := outcome(rc.roundTrip(t, AppendPut(nil, 1, 0, key, 100))); out.Status != runtime.StatusOK {
		t.Fatalf("PUT 100 → %v, want ok", out.Status)
	}
	if out := outcome(rc.roundTrip(t, del)); out.Status != runtime.StatusRecovered || out.Crashes != 1 {
		t.Fatalf("first DEL → %v (crashes %d), want recovered after one crash", out.Status, out.Crashes)
	}
	rc.c.Close()
	srv.Close()
	db.Close()

	// The DEL's anchor is the log's last write: the put-at record and the
	// outcome record in one batch. Crash with that write issued and not yet
	// synced, and take the tear that keeps the effect and drops the verdict.
	journal := fsim.Journal()
	last := -1
	for i, op := range journal {
		if op.Kind == simio.OpWrite && strings.HasSuffix(op.Path, "wal.log") {
			last = i
		}
	}
	var img *simio.Image
	simio.EnumerateImages(journal, last+1, simio.RecordAwareCuts, 64, func(cand simio.Image) bool {
		cdb, err := durable.OpenFs(simio.FromImage(cand), "/data", 2, 2, Window)
		if err != nil {
			t.Fatalf("recovery of a crash image failed: %v", err)
		}
		defer cdb.Close()
		val, journaled := cdb.MirrorGet(shardkv.ShardIndex(key, 2), key)
		for _, s := range cdb.Sessions() {
			if _, verdict := s.Window[2]; s.SID == sid && journaled && val == 0 && !verdict && len(s.Window[1]) > 0 {
				cp := cand.Clone()
				img = &cp
			}
		}
		return img == nil
	})
	if img == nil {
		t.Fatal("no crash image holds the DEL's put-at record without its outcome record")
	}

	db2, srv2 := serve(simio.FromImage(*img), addr)
	defer db2.Close()
	defer srv2.Close()
	rc2 := dialRaw(t, addr)
	defer rc2.c.Close()
	if _, resumed := rc2.hello(t, sid); !resumed {
		t.Fatal("session did not resume on the recovered server")
	}
	resent := outcome(rc2.roundTrip(t, del))
	got := outcome(rc2.roundTrip(t, AppendGet(nil, 3, 0, key)))
	if resent.Status == runtime.StatusFailed && resent.Crashes == 1 && got.Resp == 0 {
		t.Skipf("known hole, ROADMAP 1A: PUT 100 → ok / DEL → recovered, journaled, outcome lost in the crash / resume, re-sent DEL → failed (crashes 1) / GET → 0")
	}
	t.Fatalf("1A no longer reproduces (re-sent DEL → %v, crashes %d; GET → %d): delete this skip and DURABILITY.md §Open",
		resent.Status, resent.Crashes, got.Resp)
}
