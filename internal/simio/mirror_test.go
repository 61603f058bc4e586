package simio

import (
	"fmt"
	"testing"

	"detectable/internal/durable"
	"detectable/internal/runtime"
)

// TestMirrorIsWhatRecoveryRebuilds: a DB's mirrors hold what replaying the
// durable prefix of its log rebuilds, no more. Stamped puts journaled behind
// no barrier are in no image a crash can leave, so the live StateHash must
// equal that of a DB reopened from the durable image before the barrier,
// and again after it, once the barrier has made them durable.
func TestMirrorIsWhatRecoveryRebuilds(t *testing.T) {
	const dir, shards, procs, window = "data", 2, 2, 8
	fsim := New()
	db, err := durable.OpenFs(fsim, dir, shards, procs, window)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.AppendHello(1, 0); err != nil {
		t.Fatal(err)
	}
	journal := func(req uint64) {
		db.BeginRequest(0, req)
		for i := range shards {
			db.ShardBacking(i).Journal(fmt.Sprintf("k%d", i), int64(req*10)+int64(i), durable.Stamp{PID: 0, Status: int(runtime.StatusOK)})
		}
	}
	check := func(when string) {
		t.Helper()
		j := fsim.Journal()
		rdb, err := durable.OpenFs(FromImage(DurableImage(j, len(j))), dir, shards, procs, window)
		if err != nil {
			t.Fatal(err)
		}
		defer rdb.Close()
		if got, want := db.StateHash(), rdb.StateHash(); got != want {
			for i := range shards {
				k := fmt.Sprintf("k%d", i)
				v, ok := db.MirrorGet(i, k)
				rv, rok := rdb.MirrorGet(i, k)
				t.Logf("%s: mirror %s=%d (%v), recovered %d (%v)", when, k, v, ok, rv, rok)
			}
			t.Fatalf("%s: StateHash %s, the durable image recovers %s", when, got, want)
		}
	}

	journal(1)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	journal(2)
	check("puts journaled behind no barrier")
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	check("after their barrier")
}
