package client_test

import (
	"testing"

	"detectable/internal/client"
	"detectable/internal/durable"
	"detectable/internal/server"
	"detectable/internal/shardkv"
)

// TestRePutThenCompactKeepsKeys: the server decodes keys zero-copy out of
// the connection's frame buffer, so the durable mirror must never store a
// key it is handed on a re-PUT (a Go map assignment to an existing string
// key stores the new key). It once did: after every key's second PUT the
// mirror's keys aliased the frame buffer, the next compaction snapshotted
// garbage, and a clean reopen came back with one key of four.
func TestRePutThenCompactKeepsKeys(t *testing.T) {
	dir := t.TempDir()
	const shards = 1 // every key on the shard that compacts
	db, err := durable.Open(dir, shards, 2, server.Window)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	srv := server.New(shardkv.New(shards, 2, shardkv.Durable(db)))
	if err := srv.AttachDurable(db); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	want := map[string]int64{"alpha": 21, "bravo": 22, "charlie": 23, "delta": 24}
	for _, back := range []int64{1, 0} { // every key PUT twice; the second value is want's
		for key, v := range want {
			if _, err := c.PutRetry(key, int(v-back)); err != nil {
				t.Fatalf("put %s: %v", key, err)
			}
		}
	}
	// A different frame through the same buffer, as the next request is.
	if _, err := c.Get("zzzzzzzzzzzzzzzzzzzz"); err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	c.Close() //nolint:errcheck
	srv.Close()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db, err = durable.Open(dir, shards, 2, server.Window)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close() //nolint:errcheck
	got := map[string]int64{}
	db.RangeShard(0, func(key string, val int64) { got[key] = val })
	for key, v := range want {
		if got[key] != v {
			t.Errorf("%s = %d after compact+reopen, want %d", key, got[key], v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("reopened shard holds %d keys %v, want the %d that were PUT", len(got), got, len(want))
	}
}
