package server_test

import (
	"testing"
	"time"

	"detectable/internal/client"
	"detectable/internal/runtime"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// startServer returns a listening server over a fresh store and a cleanup.
func startServer(t *testing.T, shards, procs int) (*server.Server, *shardkv.Store) {
	t.Helper()
	store := shardkv.New(shards, procs)
	srv := server.New(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, store
}

func TestBasicOpsOverWire(t *testing.T) {
	srv, store := startServer(t, 4, 2)
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if got := store.FreeSlots(); got != 1 {
		t.Fatalf("free slots = %d after one worker session on a 2-proc store, want 1", got)
	}

	out, err := c.Put("alpha", 7)
	if err != nil || out.Status != runtime.StatusOK {
		t.Fatalf("put: %v %+v", err, out)
	}
	out, err = c.Get("alpha")
	if err != nil || out.Resp != 7 {
		t.Fatalf("get: %v %+v", err, out)
	}
	if got := store.Peek("alpha"); got != 7 {
		t.Fatalf("store behind the wire holds %d, want 7", got)
	}
	out, err = c.Del("alpha")
	if err != nil || !out.Status.Linearized() {
		t.Fatalf("del: %v %+v", err, out)
	}
	if out, err = c.Get("alpha"); err != nil || out.Resp != 0 {
		t.Fatalf("get after del: %v %+v", err, out)
	}

	entries := []shardkv.KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}, {Key: "c", Val: 3}}
	outs, err := c.MultiPut(entries)
	if err != nil || len(outs) != 3 {
		t.Fatalf("mput: %v %d outcomes", err, len(outs))
	}
	gets, err := c.MultiGet([]string{"c", "a", "b"})
	if err != nil {
		t.Fatalf("mget: %v", err)
	}
	for i, want := range []int{3, 1, 2} {
		if gets[i].Resp != want || !gets[i].Status.Linearized() {
			t.Fatalf("mget[%d] = %+v, want %d", i, gets[i], want)
		}
	}

	snaps, err := c.Stats()
	if err != nil || len(snaps) != 4 {
		t.Fatalf("stats: %v, %d shards", err, len(snaps))
	}
	var total shardkv.StatsSnapshot
	for _, s := range snaps {
		total = total.Add(s)
	}
	if total.Ops() == 0 {
		t.Fatal("stats recorded no ops")
	}

	if err := c.CrashShard(1); err != nil {
		t.Fatalf("crash shard: %v", err)
	}
	if got := store.StatsFor(1).CrashesInjected; got != 1 {
		t.Fatalf("shard 1 crashes injected = %d, want 1", got)
	}
	if err := c.CrashShard(-1); err != nil {
		t.Fatalf("crash all: %v", err)
	}
	if got := store.TotalStats().CrashesInjected; got != 5 {
		t.Fatalf("total crashes injected = %d, want 5", got)
	}
}

func TestSlotLeasing(t *testing.T) {
	srv, store := startServer(t, 2, 2)
	addr := srv.Addr().String()

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	// Two sessions that shared a pid would leave one slot free.
	if store.FreeSlots() != 0 {
		t.Fatalf("free slots = %d, want 0", store.FreeSlots())
	}

	// A third worker session must be refused — pids may not be invented.
	if _, err := client.Dial(addr); err == nil {
		t.Fatal("third session on a 2-proc store succeeded")
	} else if we, ok := err.(*client.WireError); !ok || we.Code != server.ErrSlotsExhausted {
		t.Fatalf("third session error = %v, want slots-exhausted", err)
	}

	// Observers lease nothing and may still crash shards and read stats.
	obs, err := client.DialObserver(addr)
	if err != nil {
		t.Fatalf("observer: %v", err)
	}
	defer obs.Close()
	if _, err := obs.Stats(); err != nil {
		t.Fatalf("observer stats: %v", err)
	}
	if _, err := obs.Put("k", 1); err == nil {
		t.Fatal("observer put succeeded")
	} else if we, ok := err.(*client.WireError); !ok || we.Code != server.ErrObserver {
		t.Fatalf("observer put error = %v, want observer-session", err)
	}

	// Closing a session frees its slot for a new one.
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if store.FreeSlots() != 1 {
		t.Fatalf("free slots after close = %d, want 1", store.FreeSlots())
	}
	c3, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial after close: %v", err)
	}
	c3.Close()
	c2.Close()
	if store.FreeSlots() != 2 {
		t.Fatalf("free slots after all closed = %d, want 2", store.FreeSlots())
	}
}

// TestPlannedCrashSweepOverWire is internal/kv's put crash-schedule sweep
// driven through the wire: the plan field injects a crash before every
// primitive step in turn, and every verdict must be definite and must
// match the store's state.
func TestPlannedCrashSweepOverWire(t *testing.T) {
	const oldVal, newVal = 1, 9
	const sweepLimit = 40
	sawFail, sawRecovered := false, false
	for step := uint32(1); ; step++ {
		if step > sweepLimit {
			t.Fatalf("no crash-free run within %d steps; raise sweepLimit", sweepLimit)
		}
		srv, store := startServer(t, 1, 2)
		c, err := client.Dial(srv.Addr().String())
		if err != nil {
			t.Fatalf("step %d: dial: %v", step, err)
		}
		if _, err := c.Put("k", oldVal); err != nil {
			t.Fatalf("step %d: seed put: %v", step, err)
		}

		out, err := c.Put("k", newVal, step)
		if err != nil {
			t.Fatalf("step %d: put: %v", step, err)
		}
		got := store.Peek("k")
		switch out.Status {
		case runtime.StatusOK, runtime.StatusRecovered:
			sawRecovered = sawRecovered || out.Status == runtime.StatusRecovered
			if got != newVal {
				t.Fatalf("step %d: verdict %v but k = %d, want %d", step, out.Status, got, newVal)
			}
		case runtime.StatusFailed, runtime.StatusNotInvoked:
			sawFail = sawFail || out.Status == runtime.StatusFailed
			if got != oldVal {
				t.Fatalf("step %d: verdict %v but k = %d, want %d", step, out.Status, got, oldVal)
			}
		default:
			t.Fatalf("step %d: indefinite outcome %+v", step, out)
		}
		c.Close()
		srv.Close()

		if out.Status == runtime.StatusOK {
			if !sawFail || !sawRecovered {
				t.Fatalf("sweep ended at step %d without both verdicts (fail=%v recovered=%v)",
					step, sawFail, sawRecovered)
			}
			return
		}
	}
}

// TestIdleSessionReaped pins the slot-leak defense: a session whose client
// vanishes without CLOSE is reaped after the idle timeout, its slot is
// reclaimed, and a later resume of the dead session is refused.
func TestIdleSessionReaped(t *testing.T) {
	store := shardkv.New(1, 1)
	srv := server.New(store)
	srv.SetIdleTimeout(50 * time.Millisecond)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sid := c.SessionID()
	c.KillConn() // vanish without CLOSE

	deadline := time.Now().Add(5 * time.Second)
	for store.FreeSlots() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never reaped; slot still leased")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The slot is usable again, and the dead session cannot be resumed.
	c2, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial after reap: %v", err)
	}
	defer c2.Close()
	conn, br := rawDial(t, srv.Addr().String())
	defer conn.Close()
	if err := server.WriteFrame(conn, server.AppendHello(nil, sid, 0)); err != nil {
		t.Fatalf("resume write: %v", err)
	}
	reply, err := server.ReadFrame(br)
	if err != nil {
		t.Fatalf("resume read: %v", err)
	}
	if code := server.NewReader(reply).U8(); code != server.ErrUnknownSession {
		t.Fatalf("resume of reaped session returned %s, want unknown-session", server.ErrName(code))
	}
}

func TestServerCloseReleasesEverything(t *testing.T) {
	srv, store := startServer(t, 2, 3)
	var clients []*client.Client
	for i := 0; i < 3; i++ {
		c, err := client.Dial(srv.Addr().String())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients = append(clients, c)
	}
	if srv.Sessions() != 3 {
		t.Fatalf("sessions = %d, want 3", srv.Sessions())
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("sessions after close = %d, want 0", srv.Sessions())
	}
	if store.FreeSlots() != 3 {
		t.Fatalf("free slots after close = %d, want 3", store.FreeSlots())
	}
	for _, c := range clients {
		if _, err := c.Put("k", 1); err == nil {
			t.Fatal("put succeeded against a closed server")
		}
	}
}
