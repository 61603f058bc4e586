package server

// End-to-end primary/backup replication at the server layer: a warm
// standby fed over the wire protocol, promotion with generation fencing,
// and the detectability contract across the failover — a session resumed
// on the promoted replica replays its outcome window byte-identically.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"detectable/internal/durable"
	"detectable/internal/shardkv"
)

// standbyStack is a warm standby replicating from a primary address.
type standbyStack struct {
	db  *durable.DB
	srv *Server
}

func startStandby(t *testing.T, dir, primaryAddr string) *standbyStack {
	t.Helper()
	db, err := durable.Open(dir, 2, 2, Window)
	if err != nil {
		t.Fatalf("standby durable.Open: %v", err)
	}
	srv := NewStandby(db, func() *shardkv.Store {
		return shardkv.New(2, 2, shardkv.Durable(db))
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("standby Listen: %v", err)
	}
	if err := srv.StartReplication(primaryAddr); err != nil {
		t.Fatalf("StartReplication: %v", err)
	}
	return &standbyStack{db: db, srv: srv}
}

// waitSynced blocks until the primary sees one attached, fully-acked
// subscriber (the snapshot alone advances seq to at least 1).
func waitSynced(t *testing.T, pdb *durable.DB) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		seq, acked, subs := pdb.ReplStatus()
		if subs >= 1 && seq >= 1 && acked >= seq {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	seq, acked, subs := pdb.ReplStatus()
	t.Fatalf("standby never synced: seq=%d acked=%d subs=%d", seq, acked, subs)
}

// serverStats drives OP-SERVER-STATS on an open raw connection.
func serverStats(t *testing.T, rc *rawConn, reqID uint64) (role byte, gen, replays uint64) {
	t.Helper()
	reply := rc.roundTrip(t, AppendServerStats(nil, reqID))
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("SERVER-STATS rejected: %s", ErrName(code))
	}
	role = r.U8()
	gen = r.U64()
	replays = r.U64()
	return role, gen, replays
}

func TestReplicationByteIdenticalReplayAcrossPromotion(t *testing.T) {
	addr1 := reserveAddr(t)
	st1 := startDurable(t, t.TempDir(), addr1)
	sb := startStandby(t, t.TempDir(), addr1)
	defer func() {
		sb.srv.Close()
		sb.db.Close()
	}()
	waitSynced(t, st1.db)
	addr2 := sb.srv.Addr().String()

	// A standby refuses ordinary sessions until promoted — clients must
	// fail over to the primary, never read from a stale window.
	rcS := dialRaw(t, addr2)
	if reply := rcS.roundTrip(t, AppendHello(nil, 0, 0)); reply[0] != ErrNotPrimary {
		t.Fatalf("standby accepted a session: reply %x", reply)
	}
	rcS.c.Close()

	// An observer CAN poll the standby, and sees its role.
	rcO := dialRaw(t, addr2)
	if reply := rcO.roundTrip(t, AppendHello(nil, 0, HelloFlagObserver)); reply[0] != StatusOK {
		t.Fatalf("observer hello on standby rejected: %x", reply)
	}
	if role, gen, _ := serverStats(t, rcO, 1); role != RoleStandby || gen != 0 {
		t.Fatalf("standby reports role=%d gen=%d, want role=%d gen=0", role, gen, RoleStandby)
	}
	rcO.c.Close()

	// Workload on the primary. Replication acks are epoch-aligned with
	// group commit: once the PUT reply is on the wire, the verdict is
	// fsynced on BOTH nodes, so an abrupt primary death afterwards loses
	// nothing.
	rc := dialRaw(t, addr1)
	sid, resumed := rc.hello(t, 0)
	if resumed {
		t.Fatal("fresh session reported resumed")
	}
	put := AppendPut(nil, 1, 0, "alpha", 41)
	original := rc.roundTrip(t, put)
	if original[0] != StatusOK {
		t.Fatalf("PUT rejected: %x", original)
	}
	rc.c.Close() // no END: the session stays live in the durable state

	// A read-only session born on the standby reads the replicated value
	// out of the applied view, once the PUT's commit mark has published it.
	rcRO := dialRaw(t, addr2)
	defer rcRO.c.Close()
	helloReadOnly(t, rcRO)
	alphaShard := shardkv.ShardIndex("alpha", sb.db.NumShards())
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, ok := sb.db.ViewGet(alphaShard, "alpha"); ok && v == 41 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the standby's view never published alpha")
		}
	}
	if out := getOutcome(t, rcRO, 1, "alpha"); out.Resp != 41 {
		t.Fatalf("standby read-only GET alpha = %d, want 41", out.Resp)
	}
	st1.kill(t) // primary is gone

	gen, err := sb.srv.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if gen != 1 {
		t.Fatalf("first promotion minted generation %d, want 1", gen)
	}
	if again, err := sb.srv.Promote(); err != nil || again != gen {
		t.Fatalf("re-promotion: gen=%d err=%v, want idempotent gen=%d", again, err, gen)
	}
	if g := sb.db.Generation(); g != gen {
		t.Fatalf("MANIFEST generation %d, want %d", g, gen)
	}
	// Promotion drops the view — the store holds every key now — and the
	// session born on the standby reads the promoted store instead.
	if v, ok := sb.db.ViewGet(alphaShard, "alpha"); ok {
		t.Fatalf("promoted node still holds a read view: alpha = %d", v)
	}
	if out := getOutcome(t, rcRO, 2, "alpha"); out.Resp != 41 {
		t.Fatalf("read-only GET alpha after promotion = %d, want 41", out.Resp)
	}

	// Resume the primary's session on the replica and re-issue the same
	// request ID: the reply must be the replicated verdict, byte for byte.
	rc2 := dialRaw(t, addr2)
	got, resumed := rc2.hello(t, sid)
	if got != sid || !resumed {
		t.Fatalf("resume on replica: sid=%d resumed=%v, want sid=%d resumed=true", got, resumed, sid)
	}
	replay := rc2.roundTrip(t, put)
	if !bytes.Equal(replay, original) {
		t.Fatalf("replayed reply %x differs from the primary's original %x", replay, original)
	}
	if n := sb.srv.RecoveredReplays(); n < 1 {
		t.Fatalf("RecoveredReplays=%d after a recovered-window replay, want >=1", n)
	}
	role, gen2, replays := serverStats(t, rc2, 2)
	if role != RolePrimary || gen2 != gen || replays < 1 {
		t.Fatalf("promoted stats role=%d gen=%d replays=%d, want role=%d gen=%d replays>=1",
			role, gen2, replays, RolePrimary, gen)
	}

	// The replicated effect is really in the promoted store.
	getReply := rc2.roundTrip(t, AppendGet(nil, 3, 0, "alpha"))
	r := NewReader(getReply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("GET rejected: %s", ErrName(code))
	}
	if out := r.Outcome(); out.Resp != 41 {
		t.Fatalf("GET on replica returned %d, want 41", out.Resp)
	}
	rc2.c.Close()
}

// TestFencedPrimaryRefusesSessions pins the planned-failover handoff on
// the demoted node: once fenced, it must refuse to mint or resume data
// sessions with ErrNotPrimary — the retryable code that rotates a failover
// client to the promoted replica. Minting one instead would lease a slot
// and durably burn a sid the promoted node has never heard of, stranding
// the client on unknown-session when it resumes over there.
func TestFencedPrimaryRefusesSessions(t *testing.T) {
	addr := reserveAddr(t)
	st := startDurable(t, t.TempDir(), addr)
	defer st.kill(t)

	// A pre-fencing session, to prove resumes are refused too.
	rc := dialRaw(t, addr)
	sid, _ := rc.hello(t, 0)
	rc.c.Close()

	if _, err := st.srv.Promote(); err != nil { // primary → fenced
		t.Fatalf("Promote: %v", err)
	}
	sessions, durably := st.srv.Sessions(), len(st.db.Sessions())

	// A fresh HELLO must bounce with the retryable not-primary code before
	// any session state is created.
	rcN := dialRaw(t, addr)
	if reply := rcN.roundTrip(t, AppendHello(nil, 0, 0)); reply[0] != ErrNotPrimary {
		t.Fatalf("fenced node answered a fresh HELLO with %x, want not-primary", reply)
	}
	rcN.c.Close()

	// Resuming the pre-fencing sid bounces the same way — the promoted
	// replica holds the session now.
	rcR := dialRaw(t, addr)
	if reply := rcR.roundTrip(t, AppendHello(nil, sid, 0)); reply[0] != ErrNotPrimary {
		t.Fatalf("fenced node answered a resume with %x, want not-primary", reply)
	}
	rcR.c.Close()

	// No slot leased, no sid durably burned by the refused HELLOs.
	if got := st.srv.Sessions(); got != sessions {
		t.Fatalf("fenced node session count moved %d → %d", sessions, got)
	}
	if got := len(st.db.Sessions()); got != durably {
		t.Fatalf("fenced node durable session count moved %d → %d", durably, got)
	}

	// Observers still work: stats and admin ops are how the fenced node is
	// inspected and drained.
	rcO := dialRaw(t, addr)
	if reply := rcO.roundTrip(t, AppendHello(nil, 0, HelloFlagObserver)); reply[0] != StatusOK {
		t.Fatalf("observer HELLO on fenced node rejected: %x", reply)
	}
	if role, _, _ := serverStats(t, rcO, 1); role != RoleFenced {
		t.Fatalf("fenced node reports role %d, want %d", role, RoleFenced)
	}
	rcO.c.Close()
}

// TestReapThenResumeRefusedOnPromotedReplica pins the reap/resume race
// under replication: a session reaped on the primary ships its durable END
// on the same barrier discipline as everything else, so resuming it — on
// the primary or on the promoted replica — yields a clean unknown-session
// error, never a stale sid with a stale window.
func TestReapThenResumeRefusedOnPromotedReplica(t *testing.T) {
	addr1 := reserveAddr(t)
	db1, err := durable.Open(t.TempDir(), 2, 2, Window)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	store1 := shardkv.New(2, 2, shardkv.Durable(db1))
	srv1 := New(store1)
	if err := srv1.AttachDurable(db1); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	srv1.SetIdleTimeout(50 * time.Millisecond)
	if err := srv1.Listen(addr1); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	sb := startStandby(t, t.TempDir(), addr1)
	defer func() {
		sb.srv.Close()
		sb.db.Close()
	}()
	waitSynced(t, db1)

	rc := dialRaw(t, addr1)
	sid, _ := rc.hello(t, 0)
	if reply := rc.roundTrip(t, AppendPut(nil, 1, 0, "beta", 7)); reply[0] != StatusOK {
		t.Fatalf("PUT rejected: %x", reply)
	}
	rc.c.Close() // detach; the reaper will END the session

	// Wait for the reap, then for the END to drain to the replica's
	// durable state.
	deadline := time.Now().Add(5 * time.Second)
	for srv1.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		live := false
		for _, s := range sb.db.Sessions() {
			if s.SID == sid {
				live = true
			}
		}
		if !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicated END never reached the standby")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Resume on the primary: clean refusal.
	rcA := dialRaw(t, addr1)
	if reply := rcA.roundTrip(t, AppendHello(nil, sid, 0)); reply[0] != ErrUnknownSession {
		t.Fatalf("reaped resume on primary: reply %x, want unknown-session", reply)
	}
	rcA.c.Close()

	srv1.Close()
	db1.Close()
	if _, err := sb.srv.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}

	// Resume on the promoted replica: the same clean refusal — the END
	// replicated, so the sid cannot come back from the dead.
	rc2 := dialRaw(t, sb.srv.Addr().String())
	if reply := rc2.roundTrip(t, AppendHello(nil, sid, 0)); reply[0] != ErrUnknownSession {
		t.Fatalf("reaped resume on replica: reply %x, want unknown-session", reply)
	}
	rc2.c.Close()

	// Fresh sessions mint NEW sids: the next-sid watermark replicated too.
	rc3 := dialRaw(t, sb.srv.Addr().String())
	sid2, resumed := rc3.hello(t, 0)
	if resumed || sid2 == sid {
		t.Fatalf("fresh session on replica: sid=%d resumed=%v (old sid %d)", sid2, resumed, sid)
	}
	if sid2 < sid {
		t.Fatalf("sid watermark regressed across failover: %d after %d", sid2, sid)
	}
	rc3.c.Close()
}

// TestStartReplicationRefusesOtherWindow: a standby over a DB opened with a
// window other than Window would promote into differently sized session
// windows, so StartReplication refuses it and names both sizes.
func TestStartReplicationRefusesOtherWindow(t *testing.T) {
	db, err := durable.Open(t.TempDir(), 2, 2, Window/2)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewStandby(db, func() *shardkv.Store { return shardkv.New(2, 2, shardkv.Durable(db)) })
	defer srv.Close()
	err = srv.StartReplication(reserveAddr(t))
	if want := fmt.Sprintf("window %d, sessions hold server.Window = %d", Window/2, Window); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("StartReplication over a window-%d DB: %v, want an error naming %q", Window/2, err, want)
	}
}

// degradedLines routes the default slog logger into a buffer for the rest of
// the test and returns a function that decodes every "replication degraded"
// line logged so far, from any goroutine.
func degradedLines(t *testing.T) func() []map[string]any {
	t.Helper()
	var (
		mu  sync.Mutex
		buf bytes.Buffer
	)
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return func() []map[string]any {
		mu.Lock()
		defer mu.Unlock()
		var lines []map[string]any
		for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var m map[string]any
			if l == "" || json.Unmarshal([]byte(l), &m) != nil {
				continue
			}
			if msg, _ := m["msg"].(string); strings.Contains(msg, "replication degraded") {
				lines = append(lines, m)
			}
		}
		return lines
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestDegradationLoggedOnlyWhenStandbyDeparts: the primary's own orderly
// shutdown is not a degradation and logs none, while a gating standby whose
// connection goes away logs exactly one WARN naming why the stream ended.
func TestDegradationLoggedOnlyWhenStandbyDeparts(t *testing.T) {
	t.Run("primary-close", func(t *testing.T) {
		lines := degradedLines(t)
		addr := reserveAddr(t)
		pst := startDurable(t, t.TempDir(), addr)
		sb := startStandby(t, t.TempDir(), addr)
		defer func() {
			sb.srv.Close()
			sb.db.Close()
		}()
		waitSynced(t, pst.db)
		pst.kill(t)
		if got := lines(); len(got) != 0 {
			t.Fatalf("the primary's own Close logged %d degradations, want none: %v", len(got), got)
		}
	})
	t.Run("standby-severed", func(t *testing.T) {
		lines := degradedLines(t)
		addr := reserveAddr(t)
		pst := startDurable(t, t.TempDir(), addr)
		defer pst.kill(t)
		sb := startStandby(t, t.TempDir(), addr)
		defer func() {
			sb.srv.Close()
			sb.db.Close()
		}()
		waitSynced(t, pst.db)
		sb.srv.StopReplication()
		for deadline := time.Now().Add(5 * time.Second); len(lines()) == 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the severed standby was never reported")
			}
		}
		time.Sleep(50 * time.Millisecond) // room for a second line, which must not come
		got := lines()
		if len(got) != 1 {
			t.Fatalf("%d degradation lines, want exactly 1: %v", len(got), got)
		}
		if l := got[0]; l["level"] != "WARN" || l["cause"] == "subscription closed" || l["cause"] == "" || l["cause"] == nil {
			t.Fatalf("degradation line %v: want level WARN and the stream's own cause", l)
		}
	})
}
