package simio

import (
	"bytes"
	"strings"
	"testing"

	"detectable/internal/durable"
)

func runSweep(t *testing.T, cfg SweepConfig) *SweepResult {
	t.Helper()
	cfg.Logf = t.Logf
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("Sweep workload: %v", err)
	}
	t.Logf("sweep: %d fs ops, %d points, %d images, %d capped points",
		res.Ops, res.Points, res.Images, res.CappedPoints)
	return res
}

func requireClean(t *testing.T, res *SweepResult) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("point %d: %s", v.Point, v.Detail)
	}
	if t.Failed() {
		t.FailNow()
	}
	if res.Points != res.Ops+1 {
		t.Fatalf("checked %d crash points for %d ops, want full coverage (%d)", res.Points, res.Ops, res.Ops+1)
	}
}

// TestSweepSyncPath exhausts every crash point × torn-write variant of a
// per-mutation-fsync workload: recovery must always succeed, every
// recovered outcome must carry its effect, every released verdict must
// survive, and recovery must be hash-pure and replay-idempotent.
func TestSweepSyncPath(t *testing.T) {
	res := runSweep(t, SweepConfig{Ops: 6, Shards: 2, Window: 64, MaxImages: 4096})
	requireClean(t, res)
	if res.CappedPoints != 0 {
		t.Fatalf("%d crash points were capped — the sync-path sweep should be exhaustive", res.CappedPoints)
	}
}

// TestSweepGroupCommit runs the same exhaustion over group-commit epochs,
// including a multi-member epoch whose anchor (one write, one fsync) is
// crossed and torn with several parked verdicts at once.
func TestSweepGroupCommit(t *testing.T) {
	res := runSweep(t, SweepConfig{Ops: 4, Shards: 2, Window: 64, Group: true, EpochBatch: 3, MaxImages: 4096})
	requireClean(t, res)
}

// TestSweepCompaction forces a compaction at every anchor so the whole
// sequence — each shard snapshot's atomic replace (tmp write → fsync →
// rename → dir sync), then the sessions snapshot's, then the log reset — is
// crash-enumerated too, including torn snapshot tails and a pre-compaction
// log replayed over newer snapshots.
func TestSweepCompaction(t *testing.T) {
	res := runSweep(t, SweepConfig{Ops: 6, Shards: 2, Window: 8, CompactAt: 1, MaxImages: 2048})
	requireClean(t, res)
}

// TestCompactionSweepReachesHalfSnapshottedImages checks that the
// compaction sweep really visits the images the one-log layout adds: a
// crash part-way through a compaction that leaves a shard snapshot new, the
// sessions snapshot old and the write-ahead log intact — recovery replays
// the whole log over a snapshot that is already ahead of it — and that
// every such image passes the sweep's checks.
func TestCompactionSweepReachesHalfSnapshottedImages(t *testing.T) {
	cfg := SweepConfig{Dir: "/data", Shards: 2, Procs: 3, Window: 8, Ops: 6, Keys: 2, CompactAt: 1}
	fsim := New()
	rel, err := runWorkload(fsim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	journal := fsim.Journal()
	durableAt := func(k int) Image { return DurableImage(journal, k) }
	shardSnap, sessSnap, wal := cfg.Dir+"/shard-000.snap", cfg.Dir+"/sessions.snap", cfg.Dir+"/wal.log"

	compactions, found := 0, 0
	for start, op := range journal {
		if op.Kind != OpCreate || op.Path != shardSnap+".tmp" {
			continue
		}
		// A compaction runs from here to the fsync behind the log's truncate.
		end := start
		for end < len(journal) && journal[end].Kind != OpTruncate {
			end++
		}
		for end < len(journal) && journal[end].Kind != OpFsync {
			end++
		}
		if end == len(journal) {
			t.Fatalf("compaction starting at op %d never resets the log", start)
		}
		compactions++
		before, after := durableAt(start), durableAt(end+1)
		if bytes.Equal(before.Files[shardSnap], after.Files[shardSnap]) ||
			bytes.Equal(before.Files[sessSnap], after.Files[sessSnap]) || len(before.Files[wal]) == 0 {
			continue // this compaction changed too little to tell old from new
		}
		if len(after.Files[wal]) != 0 {
			t.Fatalf("compaction ending at op %d left %d log bytes", end, len(after.Files[wal]))
		}
		for k := start + 1; k <= end; k++ {
			EnumerateImages(journal, k, RecordAwareCuts, 0, func(img Image) bool {
				if bytes.Equal(img.Files[shardSnap], after.Files[shardSnap]) &&
					bytes.Equal(img.Files[sessSnap], before.Files[sessSnap]) &&
					bytes.Equal(img.Files[wal], before.Files[wal]) {
					found++
					if v := checkImage(cfg, img, rel, k); v != nil {
						t.Errorf("crash point %d (compaction %d–%d): %s", k, start, end, v.Detail)
					}
				}
				return !t.Failed()
			})
		}
	}
	t.Logf("%d compactions, %d images with shard 0's snapshot new, the sessions snapshot old and the log intact", compactions, found)
	if found == 0 {
		t.Fatal("the compaction sweep never reached a half-snapshotted image")
	}
}

// TestSweepCatchesMutant seeds the classic ordering bug — the outcome
// record written and synced in front of the shard effect it promises — and
// requires the sweep to convict it. This is the test of the test: if the
// enumerator or the checker went soft, the mutant would slip through and
// this fails.
func TestSweepCatchesMutant(t *testing.T) {
	durable.MutantOutcomeFirst = true
	defer func() { durable.MutantOutcomeFirst = false }()

	res := runSweep(t, SweepConfig{Ops: 4, Shards: 2, Window: 64, MaxImages: 2048})
	if len(res.Violations) == 0 {
		t.Fatal("outcome-before-effect mutant survived the sweep undetected")
	}
	var sawEffectLoss bool
	for _, v := range res.Violations {
		if strings.Contains(v.Detail, "outcome without effect") || strings.Contains(v.Detail, "released effect lost") {
			sawEffectLoss = true
		}
	}
	if !sawEffectLoss {
		t.Fatalf("mutant convicted, but not for effect loss: %v", res.Violations[0].Detail)
	}
	// The convicting image must reproduce: recover it and re-check.
	v := res.Violations[0]
	if len(v.Image.Files) == 0 {
		t.Fatal("violation carries no reproducing image")
	}
}

// TestSweepCatchesMutantUnderGroupCommit: the same mutant must also be
// caught when commits ride epochs.
func TestSweepCatchesMutantUnderGroupCommit(t *testing.T) {
	durable.MutantOutcomeFirst = true
	defer func() { durable.MutantOutcomeFirst = false }()

	res := runSweep(t, SweepConfig{Ops: 4, Shards: 2, Window: 64, Group: true, EpochBatch: 3, MaxImages: 2048})
	if len(res.Violations) == 0 {
		t.Fatal("outcome-before-effect mutant survived the group-commit sweep undetected")
	}
}
