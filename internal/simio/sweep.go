package simio

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/durable"
	"detectable/internal/runtime"
)

// The crash-prefix sweep: run a durable workload against the simulated
// filesystem, then for every crash point × admissible byte image, recover
// with durable.OpenFs and check
//
//  1. recovery succeeds (a crash may never brick the store),
//  2. outcome-implies-effect: every entry a recovered verdict answers
//     linearized has its put in its shard mirror (the paper's detectability
//     contract — a replayed verdict never promises a lost write): the
//     entry's own stamped put-at record where the verdict was rebuilt from
//     stamps, the puts in front of it where it is an outcome record,
//  3. released-verdict survival: every verdict the workload released (its
//     commit returned) before the crash point is recovered, with
//     byte-identical reply and surviving effect,
//  4. purity: recovering the same image twice yields the same StateHash —
//     recovery is a pure function of the byte image,
//  5. idempotence: recovering the image recovery itself produced yields
//     the same StateHash (recover ×2 ≡ ×1),
//
// all pinned by durable.StateHash rather than spot-checks.

// SweepConfig parameterizes one sweep.
type SweepConfig struct {
	Dir    string `json:"dir"` // data directory path inside the simulated fs
	Shards int    `json:"shards"`
	Procs  int    `json:"procs"`
	Window int    `json:"window"`
	Ops    int    `json:"ops"`  // committed mutations in the main workload phase
	Keys   int    `json:"keys"` // distinct keys per shard (values stay monotone per key)
	// EpochBatch > 1 adds a multi-member epoch phase: that many concurrent
	// commits share one anchor, so crash points inside the anchor's one
	// write and one fsync carry several parked verdicts at once, and its
	// torn variants cut between them.
	EpochBatch int                              `json:"epoch_batch"`
	CompactAt  int64                            `json:"compact_at"` // compaction threshold; 0 keeps the durable default
	MaxImages  int                              `json:"max_images"` // per-crash-point image cap; 0 = unlimited
	Budget     time.Duration                    `json:"budget"`     // wall-clock budget; 0 = unlimited
	Logf       func(format string, args ...any) `json:"-"`
}

// Trace is one convicted crash image, self-contained: the sweep's config,
// the crash point, what the checks found, the byte image and every write
// the workload committed. Replay re-checks it without re-running the
// workload, so a trace found once reproduces its Detail anywhere.
type Trace struct {
	Config  SweepConfig `json:"config"`
	Point   int         `json:"point"`
	Detail  string      `json:"detail"`
	Image   Image       `json:"image"`
	Written []Verdict   `json:"written"`
}

// Verdict is one write the workload committed: request Req of session SID,
// the put of each of its entries (a PUT's one; a failed entry journaled
// nothing and promises nothing), the reply released for it, and the journal
// indices bracketing that reply's validity.
type Verdict struct {
	SID        uint64 `json:"sid"`
	Req        uint64 `json:"req"`
	Puts       []Put  `json:"puts"`
	Reply      []byte `json:"reply"`
	ReleasedAt int    `json:"released_at"` // journal length when the commit returned
	EndedAt    int    `json:"ended_at"`    // journal length when the session's END began; MaxInt if never
}

// Put is one entry's effect: Key holds Val or a later value.
type Put struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// MaxReport bounds SweepResult.Violations; Found counts past it.
const MaxReport = 32

// SweepResult summarizes a sweep.
type SweepResult struct {
	Ops          int // journaled fs operations = crash points - 1
	Points       int // crash points actually checked
	Images       int // images recovered (each at least twice, plus replay)
	CappedPoints int // points where MaxImages truncated enumeration
	BudgetHit    bool
	Found        int     // images that failed a check
	Violations   []Trace // the first MaxReport of them
}

// mustSurvive returns the verdicts of written a crash at point k must keep:
// released by then, and not legitimately ended.
func mustSurvive(written []Verdict, k int) []Verdict {
	var must []Verdict
	for _, v := range written {
		if v.ReleasedAt <= k && k < v.EndedAt {
			must = append(must, v)
		}
	}
	return must
}

// Sweep runs the workload and the full crash-point × image enumeration.
// The only error return is a workload failure (a bug in the harness or the
// store's crash-free path); consistency failures are reported as
// Violations.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	cfg.Dir = cmp.Or(cfg.Dir, "/data")
	cfg.Shards, cfg.Procs = cmp.Or(cfg.Shards, 2), cmp.Or(cfg.Procs, 3)
	cfg.Window, cfg.Keys = cmp.Or(cfg.Window, 64), cmp.Or(cfg.Keys, 2)
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	fsim := New()
	written, err := runWorkload(fsim, cfg)
	if err != nil {
		return nil, err
	}
	journal := fsim.Journal()
	res := &SweepResult{Ops: len(journal)}
	logf("workload journaled %d fs ops (%d crash points), %d released verdicts",
		len(journal), len(journal)+1, len(written))

	start := time.Now()
	for k := 0; k <= len(journal); k++ {
		if cfg.Budget > 0 && time.Since(start) > cfg.Budget {
			res.BudgetHit = true
			logf("budget exhausted at crash point %d/%d", k, len(journal))
			break
		}
		res.Points++
		must := mustSurvive(written, k)
		n, capped := EnumerateImages(journal, k, RecordAwareCuts, cfg.MaxImages, func(img Image) bool {
			res.Images++
			if detail := checkImage(cfg, img, written, must); detail != "" {
				if res.Found++; len(res.Violations) < MaxReport {
					res.Violations = append(res.Violations, Trace{Config: cfg, Point: k, Detail: detail, Image: img.Clone(), Written: written})
				}
			}
			return true
		})
		if capped {
			res.CappedPoints++
			logf("crash point %d: image enumeration capped at %d", k, n)
		}
	}
	return res, nil
}

// runWorkload drives the commit protocol through every durability-relevant
// path: session hellos, epochs of one write each (journalWrite: stamped
// put-at records behind a bare barrier, or, for an MPUT with a failed entry,
// behind its outcome record, which the sweep's outcome-first mutant moves
// ahead of them), a multi-member epoch, observer-ID burns, a session end,
// compaction (when CompactAt is small), and a clean close. Session s holds
// process s − 1.
func runWorkload(fsim *Fs, cfg SweepConfig) ([]Verdict, error) {
	gate := &gateFs{Fs: fsim, entered: make(chan struct{}), release: make(chan struct{})}
	db, err := durable.OpenFs(gate, cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
	if err != nil {
		return nil, fmt.Errorf("simio: workload open: %w", err)
	}
	if cfg.CompactAt > 0 {
		db.SetCompactThreshold(cfg.CompactAt)
	}
	if err := db.AppendHello(1, 0); err != nil {
		return nil, err
	}
	if err := db.AppendHello(2, 1); err != nil {
		return nil, err
	}

	var (
		mu      sync.Mutex // the epoch batch commits from several goroutines
		written []Verdict
		reqs    = map[uint64]uint64{}
		val     int64
	)
	commit := func(sid uint64, i int) error {
		// The epoch batch commits one session's requests concurrently, so a
		// request's ID is published and its puts stamped under mu.
		mu.Lock()
		reqs[sid]++
		v := journalWrite(db, cfg, sid, reqs[sid], i, &val)
		mu.Unlock()
		if err := commitWrite(db, v); err != nil {
			return fmt.Errorf("simio: workload commit %d: %w", i, err)
		}
		mu.Lock()
		defer mu.Unlock()
		v.ReleasedAt = fsim.Ops()
		written = append(written, v)
		return nil
	}

	i := 0
	for ; i < cfg.Ops; i++ {
		if err := commit(1+uint64(i%2), i); err != nil {
			return nil, err
		}
		if i == cfg.Ops/2 {
			// Observer-session ID burn, mid-stream.
			if err := db.NoteSID(100); err != nil {
				return nil, err
			}
		}
	}

	// A short-lived third session: hello, one commit, durable end. Its
	// released verdict must survive crashes up to the moment the END could
	// have reached the medium.
	if cfg.Procs >= 3 {
		if err := db.AppendHello(3, 2); err != nil {
			return nil, err
		}
		if err := commit(3, i); err != nil {
			return nil, err
		}
		i++
		endStart := fsim.Ops()
		if err := db.AppendEnd(3); err != nil {
			return nil, err
		}
		for j := range written {
			if written[j].SID == 3 {
				written[j].EndedAt = endStart
			}
		}
	}

	// Multi-member epoch: several commits parked on one anchor, so its one
	// write carries the puts and outcome records of multiple in-flight
	// verdicts. The gate holds one commit's fsync open; the batch journals
	// its puts and joins the next epoch behind it meanwhile, and once the
	// gate opens that epoch's leader anchors the whole batch.
	if cfg.EpochBatch > 1 {
		epochs0, commits0 := db.GroupCommitStats()
		errs := make(chan error, 1+cfg.EpochBatch)
		gate.armed.Store(true)
		go func() { errs <- commit(1, i) }()
		<-gate.entered
		for b := 1; b <= cfg.EpochBatch; b++ {
			go func() { errs <- commit(1, i+b) }()
		}
		for _, n := db.GroupCommitStats(); n < commits0+1+uint64(cfg.EpochBatch); _, n = db.GroupCommitStats() {
			time.Sleep(100 * time.Microsecond)
		}
		gate.release <- struct{}{}
		for range 1 + cfg.EpochBatch {
			if err := <-errs; err != nil {
				return nil, err
			}
		}
		if epochs, _ := db.GroupCommitStats(); epochs-epochs0 != 2 {
			return nil, fmt.Errorf("simio: the held commit and a batch of %d rode %d epochs, want 2", cfg.EpochBatch, epochs-epochs0)
		}
	}

	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("simio: workload close: %w", err)
	}
	return written, nil
}

// gateFs is the simulated filesystem with a one-shot gate on the write-ahead
// log's fsync: once armed, the next such fsync reports on entered and waits
// for release before it reaches the simulation.
type gateFs struct {
	*Fs
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateFs) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	f, err := g.Fs.OpenFile(path, flag, perm)
	if err != nil || filepath.Base(path) != "wal.log" {
		return f, err
	}
	return gateFile{File: f, g: g}, nil
}

type gateFile struct {
	durable.File
	g *gateFs
}

func (f gateFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// journalWrite journals write i of the workload as request req of session
// sid (process sid − 1) and returns its verdict, not yet released. Writes
// rotate through what a server commits: a PUT (even i); an MPUT of two
// whose entries both linearized (i % 4 = 1); an MPUT of two whose second
// entry failed with one crash, journaling only its first (i % 4 = 3). *val
// numbers the puts in journal order, so every key's values rise along the
// log.
func journalWrite(db *durable.DB, cfg SweepConfig, sid, req uint64, i int, val *int64) Verdict {
	outs := []runtime.Outcome[int]{{Status: runtime.StatusOK}}
	switch i % 4 {
	case 1:
		outs = append(outs, runtime.Outcome[int]{Status: runtime.StatusRecovered, Crashes: 1})
	case 3:
		outs = append(outs, runtime.Outcome[int]{Status: runtime.StatusFailed, Crashes: 1})
	}
	v, pid, batch := Verdict{SID: sid, Req: req, EndedAt: math.MaxInt}, int(sid-1), len(outs)
	if batch == 1 {
		batch, v.Reply = 0, durable.AppendReply(nil, outs[0])
	} else {
		v.Reply = durable.AppendBatchReply(nil, outs)
	}
	db.BeginRequest(pid, req)
	for e, out := range outs {
		shard := (i + e) % cfg.Shards
		p := Put{Key: fmt.Sprintf("s%d-k%d", shard, (i+e)/cfg.Shards%cfg.Keys)}
		if out.Status.Linearized() {
			*val++
			p.Val = *val
			db.ShardBacking(shard).Journal(p.Key, p.Val, durable.Stamp{PID: pid, Status: int(out.Status), Crashes: out.Crashes, Entry: e, Batch: batch})
		}
		v.Puts = append(v.Puts, p)
	}
	return v
}

// commitWrite makes v durable as the server commits a write's reply: by a
// bare barrier where its stamps carry it, as its outcome record otherwise.
func commitWrite(db *durable.DB, v Verdict) error {
	if durable.StampsCarry(v.Reply) {
		return db.Sync()
	}
	return db.CommitOutcome(v.SID, v.Req, v.Reply)
}

// promised returns the puts of v that reply — v's released reply, or one
// recovery rebuilt for v — answers linearized, and false if reply does not
// answer as many entries as v has.
func promised(v Verdict, reply []byte) ([]Put, bool) {
	at := 1 // a PUT's reply: the status byte, then its verdict
	if len(reply) != 1+durable.VerdictSize {
		at = 3 // an MPUT's: the status byte and the count, then a verdict per entry
	}
	if len(reply) != at+len(v.Puts)*durable.VerdictSize {
		return nil, false
	}
	var puts []Put
	for e, p := range v.Puts {
		if runtime.Status(reply[at+e*durable.VerdictSize]).Linearized() {
			puts = append(puts, p)
		}
	}
	return puts, true
}

// Replay recovers t's byte image and re-runs every check against t's
// writes and the verdicts of them that must survive at t.Point, as Sweep
// did. It returns the violation it finds, "" when the image passes.
func Replay(t Trace) string {
	return checkImage(t.Config, t.Image, t.Written, mustSurvive(t.Written, t.Point))
}

// checkImage recovers one byte image (twice, plus a replay of the
// recovered state) and evaluates every invariant, with written every write
// of the workload and must the verdicts released before the crash. It
// returns what failed, "" on a pass.
func checkImage(cfg SweepConfig, img Image, written, must []Verdict) string {
	f1 := FromImage(img)
	db1, err := durable.OpenFs(f1, cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
	if err != nil {
		return fmt.Sprintf("recovery failed: %v", err)
	}
	h1 := db1.StateHash()
	detail := checkVerdicts(db1, cfg, written, must)
	db1.Close()
	if detail != "" {
		return detail
	}

	// (4) purity: same image, fresh recovery, same hash.
	if h2, err := recoverHash(cfg, img); err != nil {
		return fmt.Sprintf("second recovery of the same image failed: %v", err)
	} else if h2 != h1 {
		return fmt.Sprintf("recovery is not a pure function of the image: hash %s then %s", h1, h2)
	}

	// (5) idempotence: recover what recovery left behind; nothing changes.
	if h3, err := recoverHash(cfg, f1.LiveImage()); err != nil {
		return fmt.Sprintf("replay of the recovered state failed: %v", err)
	} else if h3 != h1 {
		return fmt.Sprintf("recovery replay not idempotent: hash %s then %s", h1, h3)
	}
	return ""
}

// recoverHash recovers img and returns the recovered StateHash.
func recoverHash(cfg SweepConfig, img Image) (string, error) {
	db, err := durable.OpenFs(FromImage(img), cfg.Dir, cfg.Shards, cfg.Procs, cfg.Window)
	if err != nil {
		return "", err
	}
	defer db.Close()
	return db.StateHash(), nil
}

// checkVerdicts checks a recovered store's verdicts against its shards:
// every verdict carries its effects, and every verdict of must survives.
func checkVerdicts(db *durable.DB, cfg SweepConfig, written, must []Verdict) string {
	kv := map[string]int64{}
	for s := 0; s < cfg.Shards; s++ {
		db.RangeShard(s, func(key string, val int64) { kv[key] = val })
	}
	// missing returns the first of puts the shards lack, if any.
	missing := func(puts []Put) (Put, string, bool) {
		for _, p := range puts {
			if got, present := kv[p.Key]; !present || got < p.Val {
				return p, fmt.Sprintf("shard has %d (present=%v)", got, present), true
			}
		}
		return Put{}, "", false
	}
	recovered := db.Sessions() // in SID order, so a replay finds the same failure first
	sessions := map[uint64]durable.SessionState{}
	for _, s := range recovered {
		sessions[s.SID] = s
	}
	byReq := map[[2]uint64]Verdict{}
	for _, v := range written {
		byReq[[2]uint64{v.SID, v.Req}] = v
	}

	// (2) outcome-implies-effect, for every recovered verdict whether or not
	// it was ever released.
	for _, s := range recovered {
		for _, o := range s.Window {
			puts, ok := promised(byReq[[2]uint64{s.SID, o.ID}], o.Reply)
			if !ok {
				return fmt.Sprintf("recovered verdict sid=%d req=%d is %x, the reply of no write the workload made", s.SID, o.ID, o.Reply)
			}
			if p, has, lost := missing(puts); lost {
				return fmt.Sprintf("outcome without effect: sid=%d req=%d promises %s=%d, %s", s.SID, o.ID, p.Key, p.Val, has)
			}
		}
	}

	// (3) released-verdict survival.
	for _, r := range must {
		puts, _ := promised(r, r.Reply)
		if p, has, lost := missing(puts); lost {
			return fmt.Sprintf("released effect lost: sid=%d req=%d put %s=%d, %s", r.SID, r.Req, p.Key, p.Val, has)
		}
		s, ok := sessions[r.SID]
		if !ok {
			return fmt.Sprintf("released verdict lost: session %d gone (req=%d)", r.SID, r.Req)
		}
		if r.Req+uint64(cfg.Window) <= s.MaxID {
			continue // evicted past the window bound: the client has advanced
		}
		if got := s.Reply(r.Req); !bytes.Equal(got, r.Reply) {
			return fmt.Sprintf("released verdict lost: sid=%d req=%d recovered as %x, want %x", r.SID, r.Req, got, r.Reply)
		}
	}
	return ""
}

// RecordAwareCuts is the CutFunc for durable's file formats: for framed
// record streams it tears at every record boundary (a clean
// record-granularity tear), inside each frame header, and mid-payload (a
// CRC-failing tear) — up to where the reader's valid prefix ends, at a
// barrier's 0xFF pad or an empty frame; for unframed files (MANIFEST) it
// falls back to a few representative byte cuts.
func RecordAwareCuts(path string, data []byte) []int {
	var cuts []int
	off := 0
	for off+durable.FrameHeader <= len(data) {
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n == 0 || n > durable.MaxRecord || off+durable.FrameHeader+n > len(data) {
			break
		}
		end := off + durable.FrameHeader + n
		cuts = append(cuts, off+4, off+durable.FrameHeader+n/2, end)
		off = end
	}
	if off == 0 {
		// Not framed from the start: representative tears.
		cuts = append(cuts, 1, len(data)/2, len(data)-1)
	}
	out := cuts[:0]
	seen := map[int]bool{}
	for _, c := range cuts {
		if c > 0 && c < len(data) && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
