package server

import (
	"fmt"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/shardkv"
	"detectable/internal/simio"
)

// TestSimBackedServerRecoveryHash runs a REAL server — TCP listener, wire
// protocol, session lease, group commit — over the simulated filesystem,
// then crash-enumerates the byte images behind every acknowledgment the
// client actually received. For each image: recovery must succeed, must be
// a pure function of the image (equal durable.StateHash across two
// recoveries), and must retain every acked put that was released before
// the crash point. This closes the gap between the storage-level sweep
// (internal/simio) and the served protocol: the ops journaled here are the
// ones the production handler path issues.
func TestSimBackedServerRecoveryHash(t *testing.T) {
	fsim := simio.New()
	db, err := durable.OpenFs(fsim, "/data", 2, 2, Window)
	if err != nil {
		t.Fatalf("durable.OpenFs(sim): %v", err)
	}
	store := shardkv.New(2, 2, shardkv.Durable(db))
	srv := New(store)
	if err := srv.AttachDurable(db); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	addr := reserveAddr(t)
	if err := srv.Listen(addr); err != nil {
		t.Fatalf("Listen: %v", err)
	}

	// A real client: every ack records the journal length at release time —
	// an upper bound on the ops that had been issued when the client saw
	// the verdict, so requiring survival for crash points ≥ that bound is
	// sound.
	type ack struct {
		req        uint64
		key        string
		val        int64
		releasedAt int
	}
	rc := dialRaw(t, addr)
	sid, _ := rc.hello(t, 0)
	var acks []ack
	const puts = 6
	for i := 0; i < puts; i++ {
		key := fmt.Sprintf("s%d-k%d", i%2, i/2)
		req := uint64(i + 1)
		reply := rc.roundTrip(t, AppendPut(nil, req, 0, key, i+1))
		if reply[0] != StatusOK {
			t.Fatalf("PUT %d rejected: %v", i, reply)
		}
		acks = append(acks, ack{req: req, key: key, val: int64(i + 1), releasedAt: fsim.Ops()})
	}
	rc.c.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("db close: %v", err)
	}

	journal := fsim.Journal()
	t.Logf("served workload journaled %d fs ops", len(journal))
	images := 0
	for k := 0; k <= len(journal); k++ {
		simio.EnumerateImages(journal, k, simio.RecordAwareCuts, 64, func(img simio.Image) bool {
			images++
			f1 := simio.FromImage(img)
			db1, err := durable.OpenFs(f1, "/data", 2, 2, Window)
			if err != nil {
				t.Fatalf("point %d: recovery failed: %v", k, err)
			}
			h1 := db1.StateHash()
			kv := map[string]int64{}
			for s := 0; s < 2; s++ {
				db1.RangeShard(s, func(key string, val int64) { kv[key] = val })
			}
			var sess *durable.SessionState
			for _, s := range db1.Sessions() {
				if s.SID == sid {
					cp := s
					sess = &cp
				}
			}
			db1.Close()

			for _, a := range acks {
				if a.releasedAt > k {
					continue
				}
				if got, ok := kv[a.key]; !ok || got < a.val {
					t.Fatalf("point %d: acked put %s=%d lost (got %d, present %v)", k, a.key, a.val, got, ok)
				}
				if sess == nil {
					t.Fatalf("point %d: session %d lost after acked request %d", k, sid, a.req)
				}
				if a.req+uint64(Window) > sess.MaxID && len(sess.Reply(a.req)) == 0 {
					t.Fatalf("point %d: acked verdict req=%d missing from recovered window", k, a.req)
				}
			}

			db2, err := durable.OpenFs(simio.FromImage(img), "/data", 2, 2, Window)
			if err != nil {
				t.Fatalf("point %d: second recovery failed: %v", k, err)
			}
			h2 := db2.StateHash()
			db2.Close()
			if h1 != h2 {
				t.Fatalf("point %d: recovery not pure: %s then %s", k, h1, h2)
			}
			return true
		})
	}
	t.Logf("recovered %d byte images, all hash-pure with acked effects intact", images)

	// Finally, an end-to-end sim restart: a second server incarnation over
	// the final disk state resumes the session and replays the last verdict
	// byte-identically.
	f2 := simio.FromImage(fsim.LiveImage())
	db2, err := durable.OpenFs(f2, "/data", 2, 2, Window)
	if err != nil {
		t.Fatalf("restart recovery: %v", err)
	}
	store2 := shardkv.New(2, 2, shardkv.Durable(db2))
	srv2 := New(store2)
	if err := srv2.AttachDurable(db2); err != nil {
		t.Fatalf("restart AttachDurable: %v", err)
	}
	if err := srv2.Listen(addr); err != nil {
		t.Fatalf("restart Listen: %v", err)
	}
	defer db2.Close()
	defer srv2.Close()
	rc2 := dialRaw(t, addr)
	if _, resumed := rc2.hello(t, sid); !resumed {
		t.Fatal("session did not resume on the sim-restarted server")
	}
	last := acks[len(acks)-1]
	reply := rc2.roundTrip(t, AppendPut(nil, last.req, 0, last.key, int(last.val)))
	if reply[0] != StatusOK {
		t.Fatalf("replayed verdict rejected: %v", reply)
	}
	if n := store2.TotalStats().Puts; n != 0 {
		t.Fatalf("sim restart re-executed %d puts; replay must come from the recovered window", n)
	}
	rc2.c.Close()
}
