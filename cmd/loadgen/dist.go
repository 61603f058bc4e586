package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/runtime"
	"detectable/internal/workload"
)

// wlCfg bundles one run's workload shape: the operation mix, the key
// distribution and the batching knob, shared by the in-process, remote and
// restart-storm runners.
type wlCfg struct {
	mixName string
	spec    mixSpec

	// dist selects the key distribution: "uniform" keeps the seed behavior
	// (every process owns a disjoint key slice, exact expected-value
	// verification), "zipf" gives every process the full key space through
	// a seeded Zipfian chooser (rank 0 hottest), so processes genuinely
	// share hot keys — the regime the per-key write-registry verifier
	// exists for.
	dist  string
	theta float64

	// mput > 0 turns the write side of the mix into MultiPut batches of
	// that many entries (the large-mutation mix): each entry's detectable
	// outcome is verified individually, exactly like a single put.
	mput int

	procs, shards, keys int
	dur                 time.Duration
	seed                int64
	verbose             bool
}

func (w *wlCfg) validate() error {
	spec, ok := mixes[w.mixName]
	if !ok {
		return fmt.Errorf("unknown mix %q (want read-heavy, write-heavy, mixed or crash-storm)", w.mixName)
	}
	w.spec = spec
	switch w.dist {
	case "uniform":
		if w.keys < w.procs {
			return fmt.Errorf("uniform needs keys ≥ procs (got procs=%d keys=%d)", w.procs, w.keys)
		}
	case "zipf":
		if w.theta < 0 {
			return fmt.Errorf("need -theta ≥ 0 (got %g)", w.theta)
		}
	default:
		return fmt.Errorf("unknown -dist %q (want uniform or zipf)", w.dist)
	}
	if w.procs < 1 || w.shards < 1 || w.keys < 1 || w.mput < 0 {
		return fmt.Errorf("need procs ≥ 1, shards ≥ 1, keys ≥ 1 and -mput ≥ 0 (got procs=%d shards=%d keys=%d mput=%d)",
			w.procs, w.shards, w.keys, w.mput)
	}
	return nil
}

func (w *wlCfg) shared() bool { return w.dist == "zipf" }

// workerRNG derives worker pid's independent, replayable stream
// (splitmix-hashed — the old seed+pid*1001 scheme collided across -procs
// sweeps sharing a seed base).
func (w *wlCfg) workerRNG(pid int) *rand.Rand {
	return rand.New(rand.NewSource(workload.WorkerSeed(w.seed, w.procs, pid)))
}

// chooser draws worker pid's next key index into the global key list:
// Zipfian over the full space in shared mode, uniform over the worker's
// own disjoint slice otherwise.
type chooser struct {
	rng  *rand.Rand
	zipf *workload.Zipf // nil in uniform mode
	own  []int          // uniform mode: pid's global key indices
}

func (w *wlCfg) chooserFor(pid int, rng *rand.Rand) *chooser {
	if w.shared() {
		return &chooser{rng: rng, zipf: workload.NewZipf(rng, w.keys, w.theta)}
	}
	var own []int
	for k := pid; k < w.keys; k += w.procs {
		own = append(own, k)
	}
	return &chooser{rng: rng, own: own}
}

func (c *chooser) next() int {
	if c.zipf != nil {
		return c.zipf.Next()
	}
	return c.own[c.rng.Intn(len(c.own))]
}

// keyNames materializes the global key list ("key-0" is Zipf rank 0, the
// hottest key).
func keyNames(keys int) []string {
	out := make([]string, keys)
	for i := range out {
		out[i] = fmt.Sprintf("key-%d", i)
	}
	return out
}

// sharedTracker is the per-key last-writer registry that keeps the
// zero-violations bar when processes share keys and no single process can
// know a key's exact expected value. Every write value is unique, so the
// registry can classify any observed value:
//
//   - a writer registers its value as in-flight BEFORE issuing the put and
//     settles it with the detectable verdict after — so any read that
//     observed the value finds it registered;
//   - a linearized read of v ≠ 0 is a violation unless v is a registered
//     in-flight or linearized write of that key (a phantom value, or a
//     value whose write's verdict said *failed*, is a lost/duplicated
//     effect). Reads mark values observed, so a later fail verdict on an
//     observed value is also convicted (the verdict lied);
//   - a linearized read of 0 is a violation only when it is provably
//     stale: some nonzero write to the key had already SETTLED linearized
//     before the read began and no deletion had begun by the time the read
//     returned (a DEL registers before it is issued). Writes merely
//     concurrent with the read never convict — the check stays sound under
//     races, it only refuses to miss the steady-state lost update.
//
// The final sweep (after every verdict has settled) tightens to: a key
// must read 0 only if it has no linearized write or has a linearized
// deletion, and must otherwise read some linearized value.
type sharedTracker struct {
	keys []trackedKey
}

type trackedKey struct {
	mu   sync.Mutex
	vals map[int]*writeState

	delBegun      bool
	delLinearized bool
	// settledNonzero counts nonzero writes whose linearized verdict has
	// settled; readers snapshot it (with delBegun) before issuing a read.
	settledNonzero int
}

type writeState struct {
	status   writeStatus
	observed bool
}

type writeStatus int

const (
	writeInflight writeStatus = iota
	writeLinearized
	writeFailed
)

func newSharedTracker(keys int) *sharedTracker {
	t := &sharedTracker{keys: make([]trackedKey, keys)}
	for i := range t.keys {
		t.keys[i].vals = make(map[int]*writeState)
	}
	return t
}

// beginPut registers val (must be nonzero and unique) as in-flight on key k.
func (t *sharedTracker) beginPut(k, val int) {
	tk := &t.keys[k]
	tk.mu.Lock()
	tk.vals[val] = &writeState{status: writeInflight}
	tk.mu.Unlock()
}

// settlePut records val's detectable verdict. Like the checks below it
// returns "" or why the outcome is a violation: here, a fail-verdict value
// that a read had already observed.
func (t *sharedTracker) settlePut(k, val int, linearized bool) (why string) {
	tk := &t.keys[k]
	tk.mu.Lock()
	defer tk.mu.Unlock()
	ws := tk.vals[val]
	if linearized {
		ws.status = writeLinearized
		tk.settledNonzero++
		return ""
	}
	ws.status = writeFailed
	if ws.observed {
		return "its verdict says not linearized, but a read already returned its value"
	}
	return ""
}

// beginDel / settleDel track deletions (writes of zero).
func (t *sharedTracker) beginDel(k int) {
	tk := &t.keys[k]
	tk.mu.Lock()
	tk.delBegun = true
	tk.mu.Unlock()
}

func (t *sharedTracker) settleDel(k int, linearized bool) {
	if !linearized {
		return
	}
	tk := &t.keys[k]
	tk.mu.Lock()
	tk.delLinearized = true
	tk.mu.Unlock()
}

// readPre snapshots key k's registry state before a read is issued; the
// snapshot decides whether a zero response can convict.
type readPre struct{ zeroConvicts bool }

func (t *sharedTracker) readBegin(k int) readPre {
	tk := &t.keys[k]
	tk.mu.Lock()
	pre := readPre{zeroConvicts: tk.settledNonzero > 0 && !tk.delBegun}
	tk.mu.Unlock()
	return pre
}

// Why a nonzero value read from a key convicts, in reads and the final sweep.
const (
	whyPhantom       = "want a registered write's value: no PUT of this key ever carried it"
	whyFailedVisible = "want a value whose write linearized: this one's verdict was not linearized"
)

// checkRead validates a linearized read response against the registry.
func (t *sharedTracker) checkRead(k, resp int, pre readPre) (why string) {
	tk := &t.keys[k]
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if resp == 0 {
		// A DEL registers before it is issued, so one that explains this
		// zero has begun by now even if it began after the snapshot.
		if pre.zeroConvicts && !tk.delBegun {
			return "want nonzero: a nonzero write had settled linearized before the read began and no DEL was ever begun"
		}
		return ""
	}
	ws, ok := tk.vals[resp]
	if !ok {
		return whyPhantom
	}
	if ws.status == writeFailed {
		return whyFailedVisible
	}
	ws.observed = true
	return ""
}

// checkReadStale validates a read served from a replica's applied view
// under the bounded-staleness contract (docs/REPLICATION.md §read
// replicas). Staleness weakens exactly one conviction: a zero can always
// be explained as a view that predates the key's writes, so zero never
// convicts. Everything else stands at full strength — the replica applies
// only journaled records, and a mutation journals only after linearizing,
// so a phantom value or a failed write's value surfacing at the replica is
// a violation just as it would be at the primary. Observed values are
// marked, so a later fail verdict on a replica-served value still
// convicts.
func (t *sharedTracker) checkReadStale(k, resp int) (why string) {
	return t.checkRead(k, resp, readPre{zeroConvicts: false})
}

// checkFinal validates key k's settled value after every verdict has
// landed: zero is allowed only with no linearized write or with a
// linearized deletion, and a nonzero value must be a registered write that
// did not fail. (A still-in-flight value here means some verdict never
// settled — the run already fails on its indefinite count.)
func (t *sharedTracker) checkFinal(k, resp int) (why string) {
	tk := &t.keys[k]
	tk.mu.Lock()
	defer tk.mu.Unlock()
	switch ws, ok := tk.vals[resp]; {
	case resp == 0 && tk.settledNonzero > 0 && !tk.delLinearized:
		return fmt.Sprintf("want nonzero: %d nonzero writes linearized and no DEL did", tk.settledNonzero)
	case resp == 0:
		return ""
	case !ok:
		return whyPhantom
	case ws.status == writeFailed:
		return whyFailedVisible
	}
	return ""
}

// verify folds one worker's operation outcomes into the run's violation
// log and indefinite counter, via the per-key write registry in shared
// (zipf) mode or the per-process expected-value map in uniform mode. The
// key index k always indexes the global key list.
type verify struct {
	worker     int
	tr         *sharedTracker // shared mode
	exp        map[string]int // uniform mode
	log        *violationLog
	indefinite *atomic.Uint64
}

func newVerify(worker int, tr *sharedTracker, log *violationLog, indefinite *atomic.Uint64) *verify {
	v := &verify{worker: worker, tr: tr, log: log, indefinite: indefinite}
	if tr == nil {
		v.exp = make(map[string]int)
	}
	return v
}

func (v *verify) readBegin(k int) readPre {
	if v.tr == nil {
		return readPre{}
	}
	return v.tr.readBegin(k)
}

func (v *verify) get(k int, key string, pre readPre, out runtime.Outcome[int]) {
	v.log.note(k, opRecord{worker: v.worker, op: "GET", out: out})
	if !out.Status.Linearized() {
		return
	}
	if v.tr != nil {
		if why := v.tr.checkRead(k, out.Resp, pre); why != "" {
			v.log.convict(k, "GET by w%d got %d (verdict %s, crashes %d): %s", v.worker, out.Resp, out.Status, out.Crashes, why)
		}
		return
	}
	if out.Resp != v.exp[key] {
		v.log.convict(k, "GET by its owner w%d got %d, want %d (verdict %s, crashes %d)", v.worker, out.Resp, v.exp[key], out.Status, out.Crashes)
	}
}

func (v *verify) beginPut(k, val int) {
	if v.tr != nil {
		v.tr.beginPut(k, val)
	}
}

func (v *verify) beginDel(k int) {
	if v.tr != nil {
		v.tr.beginDel(k)
	}
}

// definite reports whether a verdict says for certain if the operation
// linearized — the paper's contract for every crashed operation.
func definite(s runtime.Status) bool {
	return s.Linearized() || s == runtime.StatusFailed || s == runtime.StatusNotInvoked
}

// settle folds one mutation's verdict (op is "PUT" or "DEL", a write of 0)
// into the owner's expectation (uniform mode) or the write registry (shared
// mode).
func (v *verify) settle(k int, key, op string, val int, out runtime.Outcome[int]) {
	v.log.note(k, opRecord{worker: v.worker, op: op, val: val, out: out})
	if !definite(out.Status) {
		v.indefinite.Add(1)
		return
	}
	linearized := out.Status.Linearized()
	switch {
	case v.tr == nil:
		if linearized {
			v.exp[key] = val
		} // else definitely not linearized: the expectation stands
	case op == "DEL":
		v.tr.settleDel(k, linearized)
	default:
		if why := v.tr.settlePut(k, val, linearized); why != "" {
			v.log.convict(k, "PUT %d by w%d (verdict %s, crashes %d): %s", val, v.worker, out.Status, out.Crashes, why)
		}
	}
}
