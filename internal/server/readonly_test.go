package server

// Read-only (GET-only) session serving: the standby answering GETs out of
// its barrier-consistent applied view, role-dependent mutation refusals,
// the fenced refusal, and the replication-lag stat (the sixth SERVER-STATS
// word) that read-preferring clients bound staleness with.

import (
	"testing"
	"time"

	"detectable/internal/runtime"
)

// helloReadOnly opens a read-only session on rc, asserting admission.
func helloReadOnly(t *testing.T, rc *rawConn) {
	t.Helper()
	reply := rc.roundTrip(t, AppendHello(nil, 0, HelloFlagReadOnly))
	if reply[0] != StatusOK {
		t.Fatalf("read-only HELLO rejected: code %d", reply[0])
	}
}

// getOutcome drives one GET on a read-only session and decodes the
// outcome reply.
func getOutcome(t *testing.T, rc *rawConn, reqID uint64, key string) runtime.Outcome[int] {
	t.Helper()
	reply := rc.roundTrip(t, AppendGet(nil, reqID, 0, key))
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("GET %q rejected: %s", key, ErrName(code))
	}
	out := runtime.Outcome[int]{Status: runtime.Status(r.U8()), Resp: int(int64(r.U64()))}
	r.U32() // crash count
	if r.Err {
		t.Fatalf("GET %q reply truncated", key)
	}
	return out
}

// statsApplied drives SERVER-STATS and returns (role, seq, applied).
func statsApplied(t *testing.T, rc *rawConn, reqID uint64) (role byte, seq, applied uint64) {
	t.Helper()
	reply := rc.roundTrip(t, AppendBare(nil, OpServerStats, reqID))
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("SERVER-STATS rejected: %s", ErrName(code))
	}
	role = r.U8()
	r.U64() // generation
	r.U64() // recovered replays
	seq = r.U64()
	r.U64() // acked
	r.U64() // replicas
	applied = r.U64()
	if r.Err {
		t.Fatal("SERVER-STATS reply truncated (applied word missing)")
	}
	return role, seq, applied
}

// TestReadOnlyStandbyServesAppliedReads is the tentpole contract: a
// standby admits a read-only session and answers GET/MGET from the
// replica's applied view — values the primary committed — while refusing
// mutations with not-primary, and its SERVER-STATS applied mark tracks
// the primary's committed barrier sequence.
func TestReadOnlyStandbyServesAppliedReads(t *testing.T) {
	addr1 := reserveAddr(t)
	st1 := startDurable(t, t.TempDir(), addr1)
	defer st1.kill(t)
	sb := startStandby(t, t.TempDir(), addr1)
	defer func() {
		sb.srv.Close()
		sb.db.Close()
	}()
	waitSynced(t, st1.db)

	// Commit a few puts on the primary; the synchronous subscription means
	// each reply was released only after the standby acked its barrier.
	rc := dialRaw(t, addr1)
	rc.hello(t, 0)
	for i, kv := range []struct {
		key string
		val int
	}{{"alpha", 41}, {"beta", 7}, {"gamma", 0}} {
		if reply := rc.roundTrip(t, AppendPut(nil, uint64(i+1), 0, kv.key, kv.val)); reply[0] != StatusOK {
			t.Fatalf("PUT %s rejected: %x", kv.key, reply)
		}
	}
	rc.c.Close()

	ro := dialRaw(t, addr2OrSelf(sb))
	defer ro.c.Close()
	helloReadOnly(t, ro)

	if out := getOutcome(t, ro, 1, "alpha"); out.Status != runtime.StatusOK || out.Resp != 41 {
		t.Fatalf("standby GET alpha = %v/%d, want OK/41", out.Status, out.Resp)
	}
	if out := getOutcome(t, ro, 2, "missing"); out.Status != runtime.StatusOK || out.Resp != 0 {
		t.Fatalf("standby GET missing = %v/%d, want OK/0", out.Status, out.Resp)
	}

	// MGET: one status, a count, then one outcome per key.
	reply := ro.roundTrip(t, AppendMGet(nil, 3, []string{"beta", "alpha"}))
	r := NewReader(reply)
	if code := r.U8(); code != StatusOK {
		t.Fatalf("MGET rejected: %s", ErrName(code))
	}
	if n := r.U16(); n != 2 {
		t.Fatalf("MGET count %d, want 2", n)
	}
	want := []int{7, 41}
	for i := range want {
		if st := runtime.Status(r.U8()); st != runtime.StatusOK {
			t.Fatalf("MGET outcome %d status %v", i, st)
		}
		if got := int(int64(r.U64())); got != want[i] {
			t.Fatalf("MGET outcome %d = %d, want %d", i, got, want[i])
		}
		r.U32() // crash count
	}

	// Mutations on the standby: refused with not-primary so a failover
	// client rotates to the primary (a read-only client never sends them).
	if reply := ro.roundTrip(t, AppendPut(nil, 4, 0, "alpha", 99)); reply[0] != ErrNotPrimary {
		t.Fatalf("standby read-only PUT answered %x, want ErrNotPrimary", reply[0])
	}
	if reply := ro.roundTrip(t, AppendDel(nil, 5, 0, "alpha")); reply[0] != ErrNotPrimary {
		t.Fatalf("standby read-only DEL answered %x, want ErrNotPrimary", reply[0])
	}
	// Crash plans need a process identity; a slotless read has none.
	if reply := ro.roundTrip(t, AppendGet(nil, 6, 1, "alpha")); reply[0] != ErrObserver {
		t.Fatalf("planned-crash GET answered %x, want ErrObserver", reply[0])
	}

	// The lag stat. The primary's observer HELLO burns a durable sid — one
	// more epoch — and its reply is released once that epoch is fsynced on
	// both nodes; the commit mark that lets the standby show the epoch to
	// readers is still on its way then, so the standby's applied mark is
	// bounded-stale: it reaches the primary's committed mark shortly, and
	// never passes it.
	pc := dialRaw(t, addr1)
	defer pc.c.Close()
	if reply := pc.roundTrip(t, AppendHello(nil, 0, HelloFlagObserver)); reply[0] != StatusOK {
		t.Fatalf("observer hello on primary rejected: %x", reply)
	}
	_, pseq, papplied := statsApplied(t, pc, 1)
	if papplied != pseq {
		t.Fatalf("primary reports applied=%d != its own seq=%d", papplied, pseq)
	}
	deadline := time.Now().Add(2 * time.Second)
	for reqID := uint64(7); ; reqID++ {
		role, _, applied := statsApplied(t, ro, reqID)
		if role != RoleStandby {
			t.Fatalf("standby reports role %d", role)
		}
		// The primary is idle, so pseq is still its committed mark.
		if applied > pseq {
			t.Fatalf("standby applied=%d is past the primary's committed seq=%d", applied, pseq)
		}
		if applied == pseq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby applied=%d never reached the primary's committed seq=%d — lag stat broken", applied, pseq)
		}
		time.Sleep(time.Millisecond)
	}
}

// addr2OrSelf returns the standby's listen address.
func addr2OrSelf(sb *standbyStack) string { return sb.srv.Addr().String() }

// TestReadOnlyOnPrimaryServesCommittedView: a primary admits read-only
// sessions too (the same client code works against either node), serving
// from its committed view, which holds every acknowledged write, and
// refuses mutations with the observer error — rotating addresses would not
// help, the session kind forbids them.
func TestReadOnlyOnPrimaryServesCommittedView(t *testing.T) {
	addr := reserveAddr(t)
	st := startDurable(t, t.TempDir(), addr)
	defer st.kill(t)

	w := dialRaw(t, addr)
	w.hello(t, 0)
	if reply := w.roundTrip(t, AppendPut(nil, 1, 0, "k", 12)); reply[0] != StatusOK {
		t.Fatalf("PUT rejected: %x", reply)
	}
	defer w.c.Close()

	ro := dialRaw(t, addr)
	defer ro.c.Close()
	helloReadOnly(t, ro)
	if out := getOutcome(t, ro, 1, "k"); out.Status != runtime.StatusOK || out.Resp != 12 {
		t.Fatalf("primary read-only GET = %v/%d, want OK/12", out.Status, out.Resp)
	}
	if reply := ro.roundTrip(t, AppendPut(nil, 2, 0, "k", 99)); reply[0] != ErrObserver {
		t.Fatalf("primary read-only PUT answered %x, want ErrObserver", reply[0])
	}
}

// TestReadOnlyRefusedOnFenced: a fenced ex-primary's state is frozen at
// demotion with no lag bound, so even read-only sessions are refused —
// the client's next address is the promoted node.
func TestReadOnlyRefusedOnFenced(t *testing.T) {
	addr := reserveAddr(t)
	st := startDurable(t, t.TempDir(), addr)
	defer st.kill(t)
	if _, err := st.srv.Promote(); err != nil {
		t.Fatalf("self-fencing Promote: %v", err)
	}
	rc := dialRaw(t, addr)
	defer rc.c.Close()
	if reply := rc.roundTrip(t, AppendHello(nil, 0, HelloFlagReadOnly)); reply[0] != ErrNotPrimary {
		t.Fatalf("fenced node answered read-only HELLO with %x, want ErrNotPrimary", reply[0])
	}
}
