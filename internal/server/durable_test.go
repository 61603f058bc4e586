package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"detectable/internal/durable"
	"detectable/internal/shardkv"
	"detectable/internal/simio"
)

// durableStack is one server incarnation over a data directory.
type durableStack struct {
	db    *durable.DB
	store *shardkv.Store
	srv   *Server
}

func startDurable(t *testing.T, dir, addr string) *durableStack {
	t.Helper()
	db, err := durable.Open(dir, 2, 2, Window)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	store := shardkv.New(2, 2, shardkv.Durable(db))
	srv := New(store)
	if err := srv.AttachDurable(db); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	// The restarted process must be able to rebind the same address the
	// clients hold; retry briefly in case the previous listener's socket
	// lingers.
	var lerr error
	for i := 0; i < 50; i++ {
		if lerr = srv.Listen(addr); lerr == nil {
			return &durableStack{db: db, store: store, srv: srv}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("Listen(%s): %v", addr, lerr)
	return nil
}

// kill tears the incarnation down the way a SIGKILL would observe it: no
// session END records, no final syncs beyond what the commit path already
// forced.
func (st *durableStack) kill(t *testing.T) {
	t.Helper()
	if err := st.srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := st.db.Close(); err != nil {
		t.Fatalf("db close: %v", err)
	}
}

// rawConn is a hand-driven protocol connection, so tests control request
// IDs exactly (the client's auto-resume would hide the replay).
type rawConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	return &rawConn{c: c, br: bufio.NewReader(c)}
}

func (rc *rawConn) roundTrip(t *testing.T, req []byte) []byte {
	t.Helper()
	bw := bufio.NewWriter(rc.c)
	if err := WriteFrame(bw, req); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	payload, err := ReadFrameInto(rc.br, &rc.buf)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	return append([]byte(nil), payload...)
}

// hello opens (sid 0) or resumes a session, returning sid and the resumed
// flag.
func (rc *rawConn) hello(t *testing.T, sid uint64) (uint64, bool) {
	t.Helper()
	reply := rc.roundTrip(t, AppendHello(nil, sid, 0))
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("HELLO rejected: code %d %q", code, r.Key())
	}
	gotSID := r.U64()
	r.U32() // pid
	resumed := r.U8() == 1
	return gotSID, resumed
}

func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDurableOutcomeWindowReplayAcrossRestart is the session half of the
// durability contract: a verdict released before a whole-process restart
// is replayed byte-identically after it — without re-executing the
// operation.
func TestDurableOutcomeWindowReplayAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	addr := reserveAddr(t)
	st1 := startDurable(t, dir, addr)

	rc := dialRaw(t, addr)
	sid, resumed := rc.hello(t, 0)
	if resumed {
		t.Fatal("fresh session reported resumed")
	}
	put := AppendPut(nil, 1, 0, "alpha", 41)
	original := rc.roundTrip(t, put)
	if original[0] != StatusOK {
		t.Fatalf("PUT rejected: %v", original)
	}
	rc.c.Close()
	st1.kill(t)

	st2 := startDurable(t, dir, addr)
	defer st2.kill(t)
	rc2 := dialRaw(t, addr)
	gotSID, resumed := rc2.hello(t, sid)
	if gotSID != sid || !resumed {
		t.Fatalf("resume after restart: sid %d resumed=%v, want %d true", gotSID, resumed, sid)
	}
	replayed := rc2.roundTrip(t, put)
	if !bytes.Equal(replayed, original) {
		t.Fatalf("replayed verdict differs:\n  original %x\n  replayed %x", original, replayed)
	}
	// The replay must come from the durable window, not a re-execution:
	// the restarted store has run zero puts.
	if puts := st2.store.TotalStats().Puts; puts != 0 {
		t.Fatalf("restart re-executed the request: %d puts", puts)
	}

	// And the effect itself is durable: a fresh request reads it back.
	get := AppendGet(nil, 2, 0, "alpha")
	reply := rc2.roundTrip(t, get)
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("GET rejected: %d", code)
	}
	if out := r.Outcome(); !out.Status.Linearized() || out.Resp != 41 {
		t.Fatalf("GET after restart = %+v, want linearized 41", out)
	}
}

// TestLostReplyFreshExecutionAfterRestart covers the other half: when the
// process dies before the verdict was committed, the re-issued request ID
// is fresh and executes exactly once.
func TestLostReplyFreshExecutionAfterRestart(t *testing.T) {
	dir := t.TempDir()
	addr := reserveAddr(t)
	st1 := startDurable(t, dir, addr)

	rc := dialRaw(t, addr)
	sid, _ := rc.hello(t, 0)
	rc.roundTrip(t, AppendPut(nil, 1, 0, "beta", 7))
	rc.c.Close()
	st1.kill(t)

	st2 := startDurable(t, dir, addr)
	defer st2.kill(t)
	rc2 := dialRaw(t, addr)
	if _, resumed := rc2.hello(t, sid); !resumed {
		t.Fatal("session did not resume")
	}
	// Request ID 2 was never issued: it must execute fresh.
	reply := rc2.roundTrip(t, AppendPut(nil, 2, 0, "beta", 8))
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("fresh PUT rejected: %d", code)
	}
	if out := r.Outcome(); !out.Status.Linearized() {
		t.Fatalf("fresh PUT outcome %+v", out)
	}
	if got := st2.store.Peek("beta"); got != 8 {
		t.Fatalf("beta = %d, want 8", got)
	}
}

// TestGroupCommitReleasedVerdictsSurviveRestart is the epoch-release half
// of the durability contract under group commit: replies are parked until
// their epoch's fsync lands, so every verdict a client has actually
// seen is anchored — a restart replays each one byte-identically from the
// recovered window (no re-execution), regardless of where in an epoch the
// kill landed. Two sessions run concurrently so epochs genuinely coalesce
// outcomes from both.
func TestGroupCommitReleasedVerdictsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	addr := reserveAddr(t)
	st1 := startDurable(t, dir, addr)

	const perConn = 8
	type connState struct {
		sid     uint64
		puts    [][]byte // request frames, reusable for replay
		replies [][]byte // released verdicts
	}
	states := make([]*connState, 2)
	var wg sync.WaitGroup
	for ci := range states {
		states[ci] = &connState{}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cs := states[ci]
			rc := dialRaw(t, addr)
			defer rc.c.Close()
			cs.sid, _ = rc.hello(t, 0)
			for i := 0; i < perConn; i++ {
				key := fmt.Sprintf("gc-%d-%d", ci, i)
				put := AppendPut(nil, uint64(i+1), 0, key, ci*100+i)
				reply := rc.roundTrip(t, put)
				if reply[0] != StatusOK {
					t.Errorf("conn %d PUT %d rejected: %v", ci, i, reply)
					return
				}
				cs.puts = append(cs.puts, put)
				cs.replies = append(cs.replies, reply)
			}
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	epochs, commits := st1.db.GroupCommitStats()
	if commits != 2+2*perConn {
		t.Fatalf("epochs carried %d durable steps, want 2 hellos and %d outcomes", commits, 2*perConn)
	}
	if epochs == 0 || epochs > commits {
		t.Fatalf("epochs=%d commits=%d: not coalescing", epochs, commits)
	}
	st1.kill(t)

	st2 := startDurable(t, dir, addr)
	defer st2.kill(t)
	for ci, cs := range states {
		rc := dialRaw(t, addr)
		if _, resumed := rc.hello(t, cs.sid); !resumed {
			t.Fatalf("conn %d session did not resume", ci)
		}
		for i, put := range cs.puts {
			if replayed := rc.roundTrip(t, put); !bytes.Equal(replayed, cs.replies[i]) {
				t.Fatalf("conn %d request %d: replayed verdict differs\n  original %x\n  replayed %x",
					ci, i, cs.replies[i], replayed)
			}
		}
		rc.c.Close()
	}
	// Replays came from the durable window: the restarted store ran nothing.
	if puts := st2.store.TotalStats().Puts; puts != 0 {
		t.Fatalf("restart re-executed %d puts", puts)
	}
}

// TestRestartSlotAccounting: recovered sessions hold their slots, so a
// full house of recovered sessions leaves none free, and ending one frees
// exactly one.
func TestRestartSlotAccounting(t *testing.T) {
	dir := t.TempDir()
	addr := reserveAddr(t)
	st1 := startDurable(t, dir, addr)

	rcA := dialRaw(t, addr)
	sidA, _ := rcA.hello(t, 0)
	rcB := dialRaw(t, addr)
	rcB.hello(t, 0)
	rcA.c.Close()
	rcB.c.Close()
	st1.kill(t)

	st2 := startDurable(t, dir, addr)
	if free := st2.store.FreeSlots(); free != 0 {
		t.Fatalf("after recovering 2 sessions on 2 slots: %d free, want 0", free)
	}
	rc := dialRaw(t, addr)
	reply := rc.roundTrip(t, AppendHello(nil, 0, 0))
	if reply[0] != ErrSlotsExhausted {
		t.Fatalf("third session admitted over a full recovered house: code %d", reply[0])
	}

	rc2 := dialRaw(t, addr)
	if _, resumed := rc2.hello(t, sidA); !resumed {
		t.Fatal("recovered session did not resume")
	}
	rc2.roundTrip(t, AppendBare(nil, OpClose, 1))
	// The CLOSE reply is flushed before the handler runs endSession; wait
	// for the slot release rather than racing it.
	deadline := time.Now().Add(2 * time.Second)
	for st2.store.FreeSlots() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("after closing one recovered session: %d free, want 1", st2.store.FreeSlots())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The END record is durable: the next restart recovers one session.
	st2.kill(t)
	st3 := startDurable(t, dir, addr)
	defer st3.kill(t)
	if n := st3.srv.Sessions(); n != 1 {
		t.Fatalf("sessions after END + restart = %d, want 1", n)
	}
}

// TestResumedPipelinedReadNotStale: only mutating verdicts are journaled,
// so a read pipelined before a mutation has no durable record while the
// durable MaxID sits above its ID. Re-issuing it after a restart must
// execute fresh, not error as stale.
func TestResumedPipelinedReadNotStale(t *testing.T) {
	dir := t.TempDir()
	addr := reserveAddr(t)
	st1 := startDurable(t, dir, addr)

	rc := dialRaw(t, addr)
	sid, _ := rc.hello(t, 0)
	rc.roundTrip(t, AppendPut(nil, 1, 0, "gamma", 5))
	rc.roundTrip(t, AppendGet(nil, 2, 0, "gamma")) // read: not journaled
	rc.roundTrip(t, AppendPut(nil, 3, 0, "gamma", 6))
	rc.c.Close()
	st1.kill(t)

	st2 := startDurable(t, dir, addr)
	defer st2.kill(t)
	rc2 := dialRaw(t, addr)
	if _, resumed := rc2.hello(t, sid); !resumed {
		t.Fatal("session did not resume")
	}
	// Durable MaxID is 3 (the put); the read's ID 2 is uncached but within
	// the recovered window — it must re-execute, exactly-once intact.
	reply := rc2.roundTrip(t, AppendGet(nil, 2, 0, "gamma"))
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("re-issued pre-crash read: code %d (%q), want OK", code, r.Key())
	}
	if out := r.Outcome(); !out.Status.Linearized() || out.Resp != 6 {
		t.Fatalf("re-issued read outcome %+v, want linearized 6 (current value)", out)
	}
	// IDs genuinely outside the window are still refused.
	reply = rc2.roundTrip(t, AppendPut(nil, 3+Window, 0, "gamma", 7)) // advance maxID
	if reply[0] != StatusOK {
		t.Fatalf("advancing put rejected: %d", reply[0])
	}
	reply = rc2.roundTrip(t, AppendGet(nil, 2, 0, "gamma"))
	if reply[0] != ErrStaleRequest {
		t.Fatalf("evicted ID: code %d, want stale", reply[0])
	}
}

// TestPipelinedPutsSurviveKill: a full window of PUTs leaves in one write,
// the connection is severed after the first reply, and the resumed session
// re-sends every request that has no reply, byte for byte. Every entry
// gets a linearized verdict and each put runs exactly once.
func TestPipelinedPutsSurviveKill(t *testing.T) {
	store := shardkv.New(4, 1)
	srv := New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	key := func(id uint64) string { return fmt.Sprintf("p-%d", id) }
	val := func(id uint64) int { return int(id) + 100 }
	// send writes the PUTs with request IDs from..Window in one write.
	send := func(rc *rawConn, from uint64) {
		var frames bytes.Buffer
		for id := from; id <= Window; id++ {
			if err := WriteFrame(&frames, AppendPut(nil, id, 0, key(id), val(id))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rc.c.Write(frames.Bytes()); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	// recv reads the reply of request id and checks its verdict.
	recv := func(rc *rawConn, id uint64) {
		payload, err := ReadFrameInto(rc.br, &rc.buf)
		if err != nil {
			t.Fatalf("request %d: read reply: %v", id, err)
		}
		r := NewReader(payload)
		if code := r.U8(); code != StatusOK {
			t.Fatalf("request %d: code %d (%q)", id, code, r.Key())
		}
		if out := r.Outcome(); !out.Status.Linearized() {
			t.Fatalf("request %d: verdict %v, want linearized", id, out.Status)
		}
	}

	rc := dialRaw(t, addr)
	sid, _ := rc.hello(t, 0)
	send(rc, 1)
	recv(rc, 1)
	rc.c.Close() // the other Window−1 replies are lost

	rc2 := dialRaw(t, addr)
	defer rc2.c.Close()
	if _, resumed := rc2.hello(t, sid); !resumed {
		t.Fatal("session did not resume")
	}
	send(rc2, 2)
	for id := uint64(2); id <= Window; id++ {
		recv(rc2, id)
	}
	for id := uint64(1); id <= Window; id++ {
		if got := store.Peek(key(id)); got != val(id) {
			t.Fatalf("%s = %d, want %d", key(id), got, val(id))
		}
	}
	if puts := store.TotalStats().Puts; puts != Window {
		t.Fatalf("put executions = %d, want %d exactly-once", puts, Window)
	}
}

// TestObserverSIDNotReissuedAfterRestart: observer sessions are not
// recoverable, but their IDs are durably burned — a restart must not hand
// a fresh session the ID a pre-crash observer still holds.
func TestObserverSIDNotReissuedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	addr := reserveAddr(t)
	st1 := startDurable(t, dir, addr)

	rcData := dialRaw(t, addr)
	dataSID, _ := rcData.hello(t, 0)
	rcObs := dialRaw(t, addr)
	obsReply := rcObs.roundTrip(t, AppendHello(nil, 0, HelloFlagObserver))
	r := NewReader(obsReply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("observer HELLO rejected: %d", code)
	}
	obsSID := r.U64()
	if obsSID <= dataSID {
		t.Fatalf("observer sid %d not above data sid %d", obsSID, dataSID)
	}
	rcData.c.Close()
	rcObs.c.Close()
	st1.kill(t)

	st2 := startDurable(t, dir, addr)
	defer st2.kill(t)
	// The observer session itself is gone (not recoverable)...
	rc := dialRaw(t, addr)
	reply := rc.roundTrip(t, AppendHello(nil, obsSID, HelloFlagObserver))
	if reply[0] != ErrUnknownSession {
		t.Fatalf("observer resume after restart: code %d, want unknown-session", reply[0])
	}
	// ...and its ID is never reissued to a fresh session.
	rc2 := dialRaw(t, addr)
	freshSID, _ := rc2.hello(t, 0)
	if freshSID <= obsSID {
		t.Fatalf("fresh session got sid %d, not above the burned observer sid %d", freshSID, obsSID)
	}
}

// TestRecoveryDropsSupersededSession: when a lost END record leaves two
// recorded sessions on one pid, recovery keeps the newer (higher SID) and
// durably ends the older instead of refusing to start.
func TestRecoveryDropsSupersededSession(t *testing.T) {
	dir := t.TempDir()
	db, err := durable.Open(dir, 2, 2, Window)
	if err != nil {
		t.Fatal(err)
	}
	db.AppendHello(1, 0) // END lost before the crash
	db.AppendHello(2, 0) // pid 0 re-leased by a newer session
	db.Close()

	addr := reserveAddr(t)
	st := startDurable(t, dir, addr)
	if n := st.srv.Sessions(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1 (superseded dropped)", n)
	}
	rc := dialRaw(t, addr)
	if _, resumed := rc.hello(t, 2); !resumed {
		t.Fatal("newer session did not resume")
	}
	st.kill(t)

	// The superseded session was durably ended: it stays gone.
	db2, err := durable.Open(dir, 2, 2, Window)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ss := db2.Sessions()
	if len(ss) != 1 || ss[0].SID != 2 {
		t.Fatalf("sessions after degraded recovery = %v, want only sid 2", ss)
	}
}

// TestAttachDurableRefusesOtherWindow: a DB opened with a window other than
// Window would restore its sessions' windows into differently sized ones,
// so AttachDurable refuses it and names both sizes.
func TestAttachDurableRefusesOtherWindow(t *testing.T) {
	db, err := durable.Open(t.TempDir(), 2, 2, 2*Window)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = New(shardkv.New(2, 2, shardkv.Durable(db))).AttachDurable(db)
	if want := fmt.Sprintf("window %d, sessions hold server.Window = %d", 2*Window, Window); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("AttachDurable over a window-%d DB: %v, want an error naming %q", 2*Window, err, want)
	}
}

// TestRecoveredReplaysCountsExactly: every replay of a verdict restored
// from the durable window counts once, and a slot that a live request
// takes over stops counting — the recovered bit goes with the ID, not the
// slot.
func TestRecoveredReplaysCountsExactly(t *testing.T) {
	dir := t.TempDir()
	addr := reserveAddr(t)
	st1 := startDurable(t, dir, addr)
	rc := dialRaw(t, addr)
	sid, _ := rc.hello(t, 0)
	put := AppendPut(nil, 1, 0, "alpha", 1)
	if reply := rc.roundTrip(t, put); reply[0] != StatusOK {
		t.Fatalf("PUT rejected: %v", reply)
	}
	rc.c.Close()
	st1.kill(t)

	st2 := startDurable(t, dir, addr)
	defer st2.kill(t)
	rc2 := dialRaw(t, addr)
	defer rc2.c.Close()
	if _, resumed := rc2.hello(t, sid); !resumed {
		t.Fatal("session did not resume")
	}
	rc2.roundTrip(t, put)
	rc2.roundTrip(t, put)
	if n := st2.srv.recoveredReplays.Load(); n != 2 {
		t.Fatalf("RecoveredReplays = %d after replaying one recovered ID twice, want 2", n)
	}
	// ID 1+Window shares ID 1's slot: recorded live, then replayed.
	live := AppendPut(nil, 1+Window, 0, "alpha", 2)
	first := rc2.roundTrip(t, live)
	if first[0] != StatusOK {
		t.Fatalf("PUT %d rejected: %v", 1+Window, first)
	}
	if again := rc2.roundTrip(t, live); !bytes.Equal(again, first) {
		t.Fatalf("replay of %d = %x, want %x", 1+Window, again, first)
	}
	if n := st2.srv.recoveredReplays.Load(); n != 2 {
		t.Fatalf("RecoveredReplays = %d after replaying a live verdict in a recovered slot, want 2", n)
	}
}

// TestDurableGetCountsInStats: a durable node answers a data session's GET
// and MGET from its view, and they still count in the key's shard's gets
// and ok over STATS, as the detectable Read did; a slotless GET counts
// nowhere. A GET's crash plan is accepted and never fires: a view read
// takes no primitive step.
func TestDurableGetCountsInStats(t *testing.T) {
	addr := reserveAddr(t)
	db, srv := hole1AServe(t, simio.New(), 2, addr)
	defer db.Close()
	defer srv.Close()
	rc, ro := dialRaw(t, addr), dialRaw(t, addr)
	defer rc.c.Close()
	defer ro.c.Close()
	rc.hello(t, 0)
	helloReadOnly(t, ro)

	hole1AOutcome(t, rc.roundTrip(t, AppendPut(nil, 1, 0, "k", 5)))
	if out := hole1AOutcome(t, rc.roundTrip(t, AppendGet(nil, 2, 3, "k"))); out.Resp != 5 || out.Crashes != 0 {
		t.Fatalf("GET k with a crash plan → %d (crashes %d), want 5 (crashes 0)", out.Resp, out.Crashes)
	}
	rc.roundTrip(t, AppendMGet(nil, 3, []string{"k", "k"}))
	if out := getOutcome(t, ro, 1, "k"); out.Resp != 5 {
		t.Fatalf("slotless GET k → %d, want 5", out.Resp)
	}

	r := NewReader(rc.roundTrip(t, AppendBare(nil, OpStats, 4)))
	if code := r.U8(); code != StatusOK {
		t.Fatalf("STATS refused: code %d", code)
	}
	var total shardkv.StatsSnapshot
	for n := r.U16(); n > 0; n-- {
		total = total.Add(r.Snapshot())
	}
	if r.Err || total.Gets != 3 || total.Puts != 1 || total.OK != 4 || total.CrashesSeen != 0 {
		t.Fatalf("STATS: gets=%d puts=%d ok=%d crashes=%d, want 3, 1, 4 and 0", total.Gets, total.Puts, total.OK, total.CrashesSeen)
	}
}
