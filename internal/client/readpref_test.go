package client_test

// Read-preference routing (readpref.go): reads ride the replica while it
// is fresh, a stalled replication tap trips the MaxLag bound and the
// router falls back to the primary, and DialFailover tries its addresses
// in order, so a write lands on the first that admits it.

import (
	"testing"
	"time"

	"detectable/internal/client"
	"detectable/internal/durable"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// startDurablePrimary brings up a journal-backed primary on a loopback
// port, the only kind a standby can subscribe to.
func startDurablePrimary(t *testing.T) (*server.Server, *durable.DB) {
	t.Helper()
	db, err := durable.Open(t.TempDir(), 2, 2, server.Window)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	store := shardkv.New(2, 2, shardkv.Durable(db))
	srv := server.New(store)
	if err := srv.AttachDurable(db); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close() //nolint:errcheck
	})
	return srv, db
}

// startReplica attaches a standby read replica to primaryAddr and waits
// until the primary reports it fully acked.
func startReplica(t *testing.T, primaryAddr string, pdb *durable.DB) *server.Server {
	t.Helper()
	db, err := durable.Open(t.TempDir(), 2, 2, server.Window)
	if err != nil {
		t.Fatalf("replica durable.Open: %v", err)
	}
	srv := server.NewStandby(db, func() *shardkv.Store {
		return shardkv.New(2, 2, shardkv.Durable(db))
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("replica listen: %v", err)
	}
	if err := srv.StartReplication(primaryAddr); err != nil {
		t.Fatalf("StartReplication: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close() //nolint:errcheck
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		seq, acked, subs := pdb.ReplStatus()
		if subs >= 1 && seq >= 1 && acked >= seq {
			return srv
		}
		time.Sleep(5 * time.Millisecond)
	}
	seq, acked, subs := pdb.ReplStatus()
	t.Fatalf("replica never synced: seq=%d acked=%d subs=%d", seq, acked, subs)
	return nil
}

// TestReadPreferenceStalledTapTripsMaxLag: a healthy replica serves the
// reads; when its replication tap stalls while the primary keeps
// committing, the applied mark freezes, the lag bound trips, and the
// router falls back to the primary — the bounded-staleness contract made
// operational.
func TestReadPreferenceStalledTapTripsMaxLag(t *testing.T) {
	psrv, pdb := startDurablePrimary(t)
	paddr := psrv.Addr().String()
	rsrv := startReplica(t, paddr, pdb)
	raddr := rsrv.Addr().String()

	w, err := client.Dial(paddr)
	if err != nil {
		t.Fatalf("dial primary: %v", err)
	}
	defer w.Close()
	for i := 0; i < 4; i++ {
		if _, err := w.Put("warm", i+1); err != nil {
			t.Fatalf("warm put: %v", err)
		}
	}

	rc, err := client.DialReadPreference([]string{paddr}, []string{raddr}, 2)
	if err != nil {
		t.Fatalf("DialReadPreference: %v", err)
	}
	defer rc.Close()
	if !rc.OnReplica() { // one replica, so it is the target
		t.Fatal("fresh replica not preferred")
	}
	if out, err := rc.Get("warm"); err != nil || out.Resp != 4 {
		t.Fatalf("replica Get warm = %v/%v, want 4", out, err)
	}

	// Stall the tap: the replica stops pulling barriers, so its applied
	// mark freezes while the primary's committed seq keeps advancing.
	rsrv.StopReplication()
	for i := 0; i < 8; i++ { // 8 barriers >> MaxLag 2
		if _, err := w.Put("ahead", i+1); err != nil {
			t.Fatalf("post-stall put: %v", err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for rc.OnReplica() && time.Now().Before(deadline) {
		if _, err := rc.Get("warm"); err != nil {
			t.Fatalf("Get during fallback window: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rc.OnReplica() {
		t.Fatal("router never fell back from the stalled replica")
	}
	// On the primary the read must be current, not bounded-stale.
	if out, err := rc.Get("ahead"); err != nil || out.Resp != 8 {
		t.Fatalf("primary Get ahead = %v/%v, want 8", out, err)
	}
}

// TestDialFailoverPrefersFirstAddress: with both nodes alive, writes land
// on the first address; the second is reached when the first is gone.
func TestDialFailoverPrefersFirstAddress(t *testing.T) {
	srvA, storeA := startServer(t, 2, 1)
	srvB, storeB := startServer(t, 2, 1)
	addrs := []string{srvA.Addr().String(), srvB.Addr().String()}

	c, err := client.DialFailover(addrs)
	if err != nil {
		t.Fatalf("DialFailover: %v", err)
	}
	defer c.Close()
	if _, err := c.Put("k", 1); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if storeA.Peek("k") != 1 || storeB.Peek("k") != 0 {
		t.Fatalf("write landed on the second address: A=%d B=%d", storeA.Peek("k"), storeB.Peek("k"))
	}

	// First node gone: the dial sweeps past its dead address to the
	// second, where the (promoted, here: standalone) node admits the
	// session.
	srvA.Close()
	c2, err := client.DialFailover(addrs)
	if err != nil {
		t.Fatalf("DialFailover after primary loss: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Put("k", 2); err != nil {
		t.Fatalf("Put after primary loss: %v", err)
	}
	if storeB.Peek("k") != 2 {
		t.Fatalf("second node holds %d, want 2", storeB.Peek("k"))
	}
}

// TestReadOnlyClientRefusesMutations: the GET-only session kind is
// enforced client-side too — no mutation ever leaves a read-only client.
func TestReadOnlyClientRefusesMutations(t *testing.T) {
	srv, _ := startServer(t, 2, 1)
	w, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer w.Close()
	if _, err := w.Put("k", 9); err != nil {
		t.Fatalf("seed Put: %v", err)
	}

	c, err := client.DialReadOnly(srv.Addr().String())
	if err != nil {
		t.Fatalf("DialReadOnly: %v", err)
	}
	defer c.Close()
	if out, err := c.Get("k"); err != nil || out.Resp != 9 {
		t.Fatalf("read-only Get = %v/%v, want 9", out, err)
	}
	if _, err := c.Put("k", 1); err == nil {
		t.Fatal("read-only Put did not error")
	}
	if _, err := c.Del("k"); err == nil {
		t.Fatal("read-only Del did not error")
	}
}
