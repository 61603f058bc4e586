package simio

import (
	"bytes"
	"encoding/json"
	"slices"
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
	t.Logf("sweep: %d fs ops, %d points, %d images, %d capped points, %d violations found",
		res.Ops, res.Points, res.Images, res.CappedPoints, res.Found)
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
// single-writer workload, one epoch per commit: recovery must always succeed, every
// recovered outcome must carry its effect, every released verdict must
// survive, and recovery must be hash-pure and replay-idempotent.
func TestSweepSyncPath(t *testing.T) {
	res := runSweep(t, SweepConfig{Ops: 6, Shards: 2, Window: 64, MaxImages: 4096})
	requireClean(t, res)
	if res.CappedPoints != 0 {
		t.Fatalf("%d crash points were capped — the sync-path sweep should be exhaustive", res.CappedPoints)
	}
}

// TestSweepGroupCommit runs the same exhaustion with a multi-member epoch
// added, whose anchor (one write, one fsync) is crossed and torn with several
// parked verdicts at once.
func TestSweepGroupCommit(t *testing.T) {
	res := runSweep(t, SweepConfig{Ops: 4, Shards: 2, Window: 64, EpochBatch: 3, MaxImages: 4096})
	requireClean(t, res)
}

// TestSweepCompaction forces a compaction at every anchor so the rewrite —
// the new log written to a temporary file, fsynced, renamed over the old one,
// the directory synced — is crash-enumerated too, including torn temporary
// files and the old log resurrected by a rename that never became durable.
func TestSweepCompaction(t *testing.T) {
	res := runSweep(t, SweepConfig{Ops: 6, Shards: 2, Window: 8, CompactAt: 1, MaxImages: 2048})
	requireClean(t, res)
}

// compactions returns, for every compaction in journal, the indices of its
// first op (the temporary file's creation) and its last (the directory sync
// behind the rename).
func compactions(t *testing.T, journal []Op, tmp string) (spans [][2]int) {
	t.Helper()
	for start, op := range journal {
		if op.Kind != OpCreate || op.Path != tmp {
			continue
		}
		end := start
		for end < len(journal) && journal[end].Kind != OpSyncDir {
			end++
		}
		if end == len(journal) {
			t.Fatalf("compaction starting at op %d never syncs the directory", start)
		}
		spans = append(spans, [2]int{start, end})
	}
	return spans
}

// TestCompactionSweepReachesBothLogs checks what makes a rewrite safe, image
// by image: at every crash point inside every compaction of the sweep's
// workload, every admissible image holds a wal.log byte-equal to the old
// log's durable image or to the new one — never a mix — and passes the
// sweep's checks; and the sweep really visits the image that needs the
// directory sync, the old log resurrected behind a rename already issued.
func TestCompactionSweepReachesBothLogs(t *testing.T) {
	cfg := SweepConfig{Dir: "/data", Shards: 2, Procs: 3, Window: 8, Ops: 6, Keys: 2, CompactAt: 1}
	fsim := New()
	written, err := runWorkload(fsim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	journal := fsim.Journal()
	wal := cfg.Dir + "/wal.log"

	spans := compactions(t, journal, wal+".tmp")
	images, resurrected := 0, 0
	for _, span := range spans {
		start, end := span[0], span[1]
		before, after := DurableImage(journal, start).Files[wal], DurableImage(journal, end+1).Files[wal]
		renamed := start
		for journal[renamed].Kind != OpRename {
			renamed++
		}
		for k := start + 1; k <= end; k++ {
			must := mustSurvive(written, k)
			EnumerateImages(journal, k, RecordAwareCuts, 0, func(img Image) bool {
				images++
				switch got := img.Files[wal]; {
				case bytes.Equal(got, before):
					if k > renamed && !bytes.Equal(before, after) {
						resurrected++
					}
				case bytes.Equal(got, after):
				default:
					t.Errorf("crash point %d (compaction %d–%d): wal.log is neither the old log nor the new:\n got %x\n old %x\n new %x",
						k, start, end, got, before, after)
				}
				if detail := checkImage(cfg, img, written, must); detail != "" {
					t.Errorf("crash point %d (compaction %d–%d): %s", k, start, end, detail)
				}
				return !t.Failed()
			})
		}
	}
	t.Logf("%d compactions, %d images inside them, %d with the old log resurrected behind the rename", len(spans), images, resurrected)
	if len(spans) == 0 || resurrected == 0 {
		t.Fatal("the compaction sweep never reached an old log resurrected by an unsynced rename")
	}
}

// TestCompactionIsFiveOps reads the cost of a compaction off the journal: one
// create, one write per 64 KiB of state, one fsync, one rename and one
// directory sync, whatever the shard count.
func TestCompactionIsFiveOps(t *testing.T) {
	for _, shards := range []int{2, 4} {
		cfg := SweepConfig{Dir: "/data", Shards: shards, Procs: 3, Window: 8, Ops: 6, Keys: 2, CompactAt: 1}
		fsim := New()
		if _, err := runWorkload(fsim, cfg); err != nil {
			t.Fatal(err)
		}
		journal := fsim.Journal()
		spans := compactions(t, journal, cfg.Dir+"/wal.log.tmp")
		if len(spans) == 0 {
			t.Fatalf("%d shards: no compaction in the journal", shards)
		}
		for _, span := range spans {
			var kinds []OpKind
			for _, op := range journal[span[0] : span[1]+1] {
				kinds = append(kinds, op.Kind)
			}
			if want := []OpKind{OpCreate, OpWrite, OpFsync, OpRename, OpSyncDir}; !slices.Equal(kinds, want) {
				t.Fatalf("%d shards: the compaction at op %d journals %v, want %v", shards, span[0], kinds, want)
			}
		}
		t.Logf("%d shards: %d compactions of 5 fs ops each (1 fsync, 1 directory sync)", shards, len(spans))
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
	// The convicting trace must reproduce from its JSON alone: recover its
	// image and re-check it against its must-survive verdicts.
	b, err := json.Marshal(res.Violations[0])
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	if got, want := Replay(tr), res.Violations[0].Detail; got != want {
		t.Fatalf("trace replays to %q, want %q", got, want)
	}
}

// TestSweepCatchesMutantUnderGroupCommit: the same mutant must also be
// caught when several commits ride one epoch.
func TestSweepCatchesMutantUnderGroupCommit(t *testing.T) {
	durable.MutantOutcomeFirst = true
	defer func() { durable.MutantOutcomeFirst = false }()

	res := runSweep(t, SweepConfig{Ops: 4, Shards: 2, Window: 64, EpochBatch: 3, MaxImages: 2048})
	if len(res.Violations) == 0 {
		t.Fatal("outcome-before-effect mutant survived the group-commit sweep undetected")
	}
}

// TestSweepCatchesRewriteWithoutDirSync seeds a compaction that skips its
// directory sync: verdicts anchored in the rewritten log are released while a
// crash can still bring back the old log, which never held them.
func TestSweepCatchesRewriteWithoutDirSync(t *testing.T) {
	durable.MutantRewriteNoDirSync = true
	defer func() { durable.MutantRewriteNoDirSync = false }()

	res := runSweep(t, SweepConfig{Ops: 4, Shards: 2, Window: 64, CompactAt: 1, MaxImages: 2048})
	if len(res.Violations) == 0 {
		t.Fatal("the rewrite without a directory sync survived the sweep undetected")
	}
	// Past the report bound the sweep still checks every image at every
	// point: it keeps MaxReport traces and counts the rest.
	if len(res.Violations) != MaxReport || res.Found <= MaxReport || res.CappedPoints != 0 {
		t.Fatalf("%d violations found, %d kept, %d points cut short: want all found, %d kept, none cut short",
			res.Found, len(res.Violations), res.CappedPoints, MaxReport)
	}
	for _, v := range res.Violations {
		if !strings.Contains(v.Detail, "released effect lost") && !strings.Contains(v.Detail, "released verdict lost") {
			t.Fatalf("mutant convicted, but not for losing a released verdict: %s", v.Detail)
		}
	}
}
