package server

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/runtime"
	"detectable/internal/shardkv"
	"detectable/internal/simio"
)

// ROADMAP item 1, Stage A — a retransmitted mutation answering failed over
// its own surviving effect — as deterministic traces through a real server
// on the simulated filesystem:
//
//	PUT k := 100 → ok / DEL k [crash plan] / the node dies / recovery /
//	the session resumes and sends the DEL's request ID again / GET k
//
// The paper's sentence — after a crash the caller learns definitively
// whether its operation linearized — requires of the last two answers that
// a verdict of ok or recovered stands over k = 0 and a verdict of failed
// over k = 100. Four things vary, and TestKnownHole1AMatrix runs every
// combination:
//
//   - the first DEL's crash plan. Announce is three primitives and line 7 of
//     Write the seventh after them: a crash before primitive 10 lands just
//     before the store to R (the DEL does not linearize, answers failed and
//     journals nothing), one before primitive 11 just behind it (the DEL
//     linearizes, is recovered and journaled);
//   - what of the DEL's epoch survives the node's death: all of it, or
//     everything up to its outcome record. A DEL that failed journals
//     nothing and has an outcome record to lose; one that linearized has
//     none — its put-at record k := 0, stamped with the DEL's request ID and
//     verdict, is the verdict — so its image is cut after that record;
//   - what the client re-sends under the DEL's ID: the same bytes, crash plan
//     included (what a real client's retransmission is), or a DEL without a
//     plan;
//   - who recovers: the same node, restarted from the crash image; or a
//     standby that was fed the primary's stream up to the same point
//     (standbyFrom) and is promoted.
//
// A recovered session that holds the verdict replays it, whatever bytes
// arrive; one that does not runs the request as fresh. Before put-at records
// were stamped, a linearized DEL's verdict was an outcome record behind its
// put-at record, and the hole was the image between the two, re-sent with
// the same bytes: the restored register's R is ⟨0, process 0, toggle 0⟩,
// process 0's first write after recovery stores the identical triple, the
// plan crashes it behind line 7, and recovery read "R unchanged" and
// honestly answered failed — over an effect that was there.
const (
	hole1AKey       = "k"
	planBeforeLine7 = 10
	planBehindLine7 = 11
)

// hole1ACase is one row of the table: the three things that decide the
// answer, and the answer the contract requires.
type hole1ACase struct {
	plan      uint32 // the first DEL's crash plan
	torn      bool   // the DEL's outcome record, if it has one, did not survive
	sameBytes bool   // the re-send repeats the plan
	status    runtime.Status
	crashes   int
	get       int
}

var hole1ATable = []hole1ACase{
	// The verdict survived: it is replayed, whatever is re-sent.
	{plan: 0, torn: false, sameBytes: true, status: runtime.StatusOK, get: 0},
	{plan: 0, torn: false, sameBytes: false, status: runtime.StatusOK, get: 0},
	{plan: planBeforeLine7, torn: false, sameBytes: true, status: runtime.StatusFailed, crashes: 1, get: 100},
	{plan: planBeforeLine7, torn: false, sameBytes: false, status: runtime.StatusFailed, crashes: 1, get: 100},
	{plan: planBehindLine7, torn: false, sameBytes: true, status: runtime.StatusRecovered, crashes: 1, get: 0},
	{plan: planBehindLine7, torn: false, sameBytes: false, status: runtime.StatusRecovered, crashes: 1, get: 0},
	// The image is cut after the DEL's last record. Where the DEL
	// linearized, that is its stamped put-at record, and the verdict
	// rebuilt from it is replayed; where it failed, the outcome record was
	// torn off and the re-send runs as fresh over k = 100.
	{plan: 0, torn: true, sameBytes: true, status: runtime.StatusOK, get: 0},
	{plan: 0, torn: true, sameBytes: false, status: runtime.StatusOK, get: 0},
	{plan: planBeforeLine7, torn: true, sameBytes: true, status: runtime.StatusFailed, crashes: 1, get: 100},
	{plan: planBeforeLine7, torn: true, sameBytes: false, status: runtime.StatusOK, get: 0},
	{plan: planBehindLine7, torn: true, sameBytes: true, status: runtime.StatusRecovered, crashes: 1, get: 0},
	{plan: planBehindLine7, torn: true, sameBytes: false, status: runtime.StatusRecovered, crashes: 1, get: 0},
}

func (c hole1ACase) String() string {
	plan := map[uint32]string{0: "no-crash", planBeforeLine7: "crash-before-line-7", planBehindLine7: "crash-behind-line-7"}[c.plan]
	image, resend := "outcome-kept", "resend-without-plan"
	if c.torn {
		image = "outcome-torn"
	}
	if c.sameBytes {
		resend = "resend-same-bytes"
	}
	return plan + "/" + image + "/" + resend
}

func hole1AServe(t *testing.T, fsys durable.Fs, procs int, addr string) (*durable.DB, *Server) {
	t.Helper()
	db, err := durable.OpenFs(fsys, "/data", 2, procs, Window)
	if err != nil {
		t.Fatalf("durable.OpenFs(sim): %v", err)
	}
	srv := New(shardkv.New(2, procs, shardkv.Durable(db)))
	if err := srv.AttachDurable(db); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	if err := srv.Listen(addr); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return db, srv
}

func hole1AOutcome(t *testing.T, reply []byte) runtime.Outcome[int] {
	t.Helper()
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("request refused: code %d %q", code, r.Key())
	}
	return r.Outcome()
}

// hole1ARun drives one trace: PUT and the first DEL on a primary, the
// node's death with the DEL's outcome record kept or torn off, recovery by
// restart or by promotion of a standby, the resumed session's re-send and a
// GET. It returns the re-send's answer and the GET's.
func hole1ARun(t *testing.T, c hole1ACase, promote bool) (resent, got runtime.Outcome[int]) {
	t.Helper()
	del := AppendDel(nil, 2, c.plan, hole1AKey)
	linearizes := c.plan != planBeforeLine7
	shard := shardkv.ShardIndex(hole1AKey, 2)

	fsim := simio.New()
	addr := reserveAddr(t)
	db, srv := hole1AServe(t, fsim, 2, addr)
	sub := db.Subscribe(0) // the stream a standby would have been fed
	rc := dialRaw(t, addr)
	sid, _ := rc.hello(t, 0)
	if out := hole1AOutcome(t, rc.roundTrip(t, AppendPut(nil, 1, 0, hole1AKey, 100))); out.Status != runtime.StatusOK {
		t.Fatalf("PUT 100 → %v, want ok", out.Status)
	}
	first := hole1AOutcome(t, rc.roundTrip(t, del))
	if first.Status.Linearized() != linearizes || first.Crashes != min(int(c.plan), 1) {
		t.Fatalf("first DEL with plan %d → %v (crashes %d)", c.plan, first.Status, first.Crashes)
	}
	rc.c.Close()
	srv.Close()
	sub.Close()
	db.Close()

	// survived reports whether a recovered node holds what the case says
	// survived: the PUT's verdict, the DEL's effect if it had one, and the
	// DEL's verdict or not — a linearized DEL's verdict is its stamped
	// put-at record, which survives with the effect.
	survived := func(rdb *durable.DB) bool {
		val, _ := rdb.MirrorGet(shard, hole1AKey)
		for _, s := range rdb.Sessions() {
			if verdict := s.Reply(2) != nil; s.SID == sid && len(s.Reply(1)) > 0 && verdict == (!c.torn || linearizes) {
				return linearizes && val == 0 || !linearizes && val == 100
			}
		}
		return false
	}

	var db2 *durable.DB
	var srv2 *Server
	if promote {
		// A failed DEL's outcome is the stream's last record. Torn off the
		// batch that carries it, the standby anchors no verdict for it — the
		// standby's image of the primary's torn tail. A linearized DEL's last
		// record is its stamped put-at, which the standby anchors whole.
		msgs := streamOf(t, sub)
		if c.torn {
			msgs = dropLastOutcome(msgs)
		}
		srv2, db2 = standbyFrom(t, 2, 2, msgs)
		if err := srv2.Listen(addr); err != nil {
			t.Fatalf("standby Listen: %v", err)
		}
		if _, err := srv2.Promote(); err != nil {
			t.Fatalf("Promote: %v", err)
		}
		if !survived(db2) {
			t.Fatal("the promoted standby does not hold what the case says survived")
		}
	} else {
		// The DEL's anchor is the log's last write: its stamped put-at
		// record, or the outcome record of a DEL that failed. Crash with that
		// write issued and not yet synced, and take the tear the case asks
		// for.
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
			if survived(cdb) {
				cp := cand.Clone()
				img = &cp
			}
			return img == nil
		})
		if img == nil {
			t.Fatal("no crash image holds what the case says survived")
		}
		db2, srv2 = hole1AServe(t, simio.FromImage(*img), 2, addr)
	}
	defer db2.Close()
	defer srv2.Close()

	rc2 := dialRaw(t, addr)
	defer rc2.c.Close()
	if _, resumed := rc2.hello(t, sid); !resumed {
		t.Fatal("session did not resume on the recovered server")
	}
	if !c.sameBytes {
		del = AppendDel(nil, 2, 0, hole1AKey)
	}
	resent = hole1AOutcome(t, rc2.roundTrip(t, del))
	got = hole1AOutcome(t, rc2.roundTrip(t, AppendGet(nil, 3, 0, hole1AKey)))
	return resent, got
}

// TestKnownHole1AMatrix runs the table through both recoveries. Every cell
// must answer what the table says, and what the table says is checked
// against the contract first.
func TestKnownHole1AMatrix(t *testing.T) {
	for _, c := range hole1ATable {
		if effect := c.get == 0; c.status.Linearized() != effect {
			t.Fatalf("%v: the table asks for %v over k = %d, which the contract forbids", c, c.status, c.get)
		}
		for _, recovery := range []string{"restart", "promote"} {
			t.Run(fmt.Sprintf("%v/%s", c, recovery), func(t *testing.T) {
				resent, got := hole1ARun(t, c, recovery == "promote")
				if resent.Status != c.status || resent.Crashes != c.crashes || got.Resp != c.get {
					t.Fatalf("re-sent DEL → %v (crashes %d), GET → %d; want %v (crashes %d), %d",
						resent.Status, resent.Crashes, got.Resp, c.status, c.crashes, c.get)
				}
			})
		}
	}
}

// TestKnownHole1AResendAnswersFailedOverItsEffect is the storms' one rare
// trace of the hole, on a restarted primary, which used to end
//
//	PUT 100 → ok / DEL → failed (crashes 1) / GET → 0
//
// The DEL crashes behind line 7, is recovered and journaled, and the node
// dies before anything behind its put-at record is durable. That record is
// stamped with the DEL's request ID and verdict, so the resumed session
// holds the verdict and the re-sent DEL replays it.
func TestKnownHole1AResendAnswersFailedOverItsEffect(t *testing.T) {
	resent, got := hole1ARun(t, hole1ACase{plan: planBehindLine7, torn: true, sameBytes: true}, false)
	if resent.Status != runtime.StatusRecovered || resent.Crashes != 1 || got.Resp != 0 {
		t.Fatalf("re-sent DEL → %v (crashes %d), GET → %d; want recovered (crashes 1), 0",
			resent.Status, resent.Crashes, got.Resp)
	}
}

// dropLastOutcome returns a copy of a replication stream cut behind its
// last record of an effect or a verdict: an outcome record standing behind
// every put-at record is cut out of the ReplLog message carrying it, the
// frames around it keeping their own checksums; a stream whose last such
// record is a put-at — a linearized PUT or DEL, stamped with its verdict —
// has nothing to tear and is returned whole.
func dropLastOutcome(msgs [][]byte) [][]byte {
	const recOutcome, recPutAt = 0x03, 0x06
	out := append([][]byte{}, msgs...)
	for i := len(out) - 1; i >= 0; i-- {
		m := out[i]
		if m[0] != durable.ReplLog {
			continue
		}
		last := -1
		for off := 1; off < len(m); off += 8 + int(binary.BigEndian.Uint32(m[off:])) {
			if k := m[off+8]; k == recOutcome || k == recPutAt {
				last = off
			}
		}
		switch {
		case last < 0:
			continue
		case m[last+8] == recPutAt:
			return out
		}
		end := last + 8 + int(binary.BigEndian.Uint32(m[last:]))
		out[i] = append(append([]byte(nil), m[:last]...), m[end:]...)
		return out
	}
	panic("stream holds no put-at and no outcome record")
}
