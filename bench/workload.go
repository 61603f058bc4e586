package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"detectable/internal/client"
	"detectable/internal/shardkv"
	"detectable/internal/workload"
)

const (
	loadConns  = 2    // never more than the CPUs of the box the numbers were sized on
	mputBatch  = 16   // entries per MPUT
	readerRate = 2000 // open-loop GETs per second at the standby (repl-put-read)
	zipfTheta  = 0.99
)

type opKind int

const (
	opGet opKind = iota
	opPut
	opMPut
	numOpKinds
)

// workloadSpec is one traffic mix on one served stack. The names are fixed:
// later issues cite them.
type workloadSpec struct {
	Name string
	Why  string
	// stack
	durable bool
	replica bool
	// closed-loop mix in percent; what remains after GET and PUT is MPUT×16
	getPct, putPct int
	theta          float64 // Zipf exponent; 0 is uniform
	// ladder is the part of the ladder this workload's traced run climbs:
	// the rungs that stand on its kind of stack.
	ladder ladderPart
}

var workloads = []workloadSpec{
	{
		Name:   "mem-get",
		Why:    "pure serving path (client, TCP, frame, handle, shardkv, kv, rw.Read), no disk: serving-path gains show, durable and replication changes must not",
		getPct: 100,
		ladder: readRungs,
	},
	{
		Name:   "mem-mix-zipf",
		Why:    "write side of the in-memory objects under Zipf 0.99 (8 toggle stores per write, MPUT fan-out, hot shard), still no disk: object and CPU cost apart from commit cost",
		getPct: 50, putPct: 40, theta: zipfTheta,
		ladder: writeRungs,
	},
	{
		Name:    "dur-mix-zipf",
		Why:     "the mem-mix-zipf op stream on a durable primary with group commit: the difference is the price of journal, epochs, sessions log and compaction",
		durable: true,
		getPct:  50, putPct: 40, theta: zipfTheta,
		ladder: durableRungs,
	},
	{
		Name:    "repl-put-read",
		Why:     "single-writer PUTs gated by a sync standby while the standby serves open-loop GETs: the replicated epoch and the applied-view read path, which the others bypass",
		replica: true,
		putPct:  100,
		ladder:  replRungs,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Values say who wrote them: writer (0 is the preload, i+1 is load
// connection i), the index of the key they were written to, and the
// writer's own sequence number. A value read back under another key, from
// a writer that does not exist, or with a sequence number its writer has
// not issued yet was carried by no PUT of that key.
func encodeVal(writer, key int, seq uint64) int {
	return writer<<56 | key<<40 | int(seq)
}

func decodeVal(v int) (writer, key int, seq uint64) {
	return v >> 56, v >> 40 & 0xffff, uint64(v) & (1<<40 - 1)
}

// sat32 stores a duration as uint32 nanoseconds, the form the sample
// buffers keep. A sample of 4.29 s or more reads as the maximum, never as
// the small number a wrapped conversion would make of it: a stall must
// stay in the tail it belongs to.
func sat32(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	return uint32(min(d, math.MaxUint32))
}

// phases is the timeline of one traffic run: phase 0 is the unrecorded
// warm-up and phases 1 … len(ends)-1 are equal slices of the measured
// window; phase i ends at ends[i]. Workers count operations and keep
// latency samples per slice and, on a traced run, client spans in the
// slices spans marks.
type phases struct {
	ends  []time.Time
	slice time.Duration
	spans []bool // per phase: the recorder is on; nil on an untraced run
}

// newPhases lays out a warm-up from start and then the window cut into n
// slices.
func newPhases(start time.Time, warmup, window time.Duration, n int) *phases {
	p := &phases{ends: make([]time.Time, n+1), slice: window / time.Duration(n)}
	p.ends[0] = start.Add(warmup)
	for i := 1; i <= n; i++ {
		p.ends[i] = p.ends[i-1].Add(p.slice)
	}
	return p
}

// slices is the number of measured slices.
func (p *phases) slices() int { return len(p.ends) - 1 }

func (p *phases) traced(phase int) bool { return p.spans != nil && p.spans[phase] }

// of returns the phase t falls in, searching forward from cur.
func (p *phases) of(t time.Time, cur int) (phase int, over bool) {
	for cur < len(p.ends) && !t.Before(p.ends[cur]) {
		cur++
	}
	return cur, cur == len(p.ends)
}

// traffic is the load of one run: the closed-loop writers/readers at the
// primary and, on repl-put-read, the paced reader at the standby.
type traffic struct {
	spec    workloadSpec
	keys    []string
	origin  time.Time // client spans are stamped relative to it
	workers []*worker
	reader  *pacedReader
}

// worker is one closed-loop load connection.
type worker struct {
	t      *traffic
	id     int
	c      *client.Client
	rng    *rand.Rand
	zipf   *workload.Zipf
	issued atomic.Uint64 // sequence number of the last write sent; read by every conn's phantom check

	lastAcked []int // per key: the value of this writer's last acked write, 0 if none
	entries   []shardkv.KV
	nextReq   uint64

	ops        []int // completed operations per phase
	samples    [numOpKinds][]uint32
	marks      [][numOpKinds]int // len(samples[kind]) at the start of each phase, and at the end of the last
	userBytes  int64             // key and value bytes of acked writes in the traced phase
	attempted  int
	failed     int
	violations int
	firstErr   error

	spans       []span // nil unless traced
	spanDropped int
}

// dialTraffic opens the load connections. It is the tail of what setup_s
// times.
func dialTraffic(spec workloadSpec, st *stack, seed int64) (*traffic, error) {
	t := &traffic{spec: spec, keys: st.keys}
	nworkers := loadConns
	if spec.replica {
		nworkers = 1 // the second connection is the reader at the standby
	}
	for i := 0; i < nworkers; i++ {
		c, err := client.Dial(st.primary.addr())
		if err != nil {
			t.close()
			return nil, err
		}
		w := &worker{
			t: t, id: i, c: c,
			rng:       rand.New(rand.NewSource(workload.WorkerSeed(seed, loadConns, i))),
			lastAcked: make([]int, len(st.keys)),
			entries:   make([]shardkv.KV, mputBatch),
		}
		if spec.theta > 0 {
			w.zipf = workload.NewZipf(w.rng, len(st.keys), spec.theta)
		}
		t.workers = append(t.workers, w)
	}
	if spec.replica {
		c, err := client.DialReadOnly(st.standby.addr())
		if err != nil {
			t.close()
			return nil, err
		}
		t.reader = &pacedReader{
			t: t, c: c,
			rng:      rand.New(rand.NewSource(workload.WorkerSeed(seed, loadConns, 1))),
			lastSeen: make([]uint64, len(st.keys)),
		}
	}
	return t, nil
}

func (t *traffic) close() {
	for _, w := range t.workers {
		w.c.Close() //nolint:errcheck // the run's verdict is already in
	}
	if t.reader != nil {
		t.reader.c.Close() //nolint:errcheck
	}
}

// prepare sizes the sample buffers — and, when rec is non-nil, the client
// span buffers, stamped from rec's origin like the fs spans — before the
// measured window, so recording allocates nothing inside it.
func (t *traffic) prepare(recorded time.Duration, rec *recorder) {
	perConn := int(recorded.Seconds()*80000) + 1024
	for _, w := range t.workers {
		for k := range w.samples {
			w.samples[k] = make([]uint32, 0, perConn)
		}
		if rec != nil {
			t.origin = rec.origin
			w.spans = make([]span, 0, perConn)
		}
	}
	if r := t.reader; r != nil {
		n := int(recorded.Seconds()*readerRate*2) + 1024
		r.samples = make([]uint32, 0, n)
		r.lateness = make([]uint32, 0, n)
		r.service = make([]uint32, 0, n)
	}
}

// run drives every connection through the phases and returns when all of
// them have finished their last operation.
func (t *traffic) run(p *phases) {
	var wg sync.WaitGroup
	for _, w := range t.workers {
		w.ops = make([]int, len(p.ends))
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(p)
		}()
	}
	if t.reader != nil {
		t.reader.ops = make([]int, len(p.ends))
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.reader.loop(p)
		}()
	}
	wg.Wait()
}

// validRead reports whether v can have been written to key: check (1).
func (t *traffic) validRead(key, v int) bool {
	writer, k, seq := decodeVal(v)
	if v <= 0 || k != key {
		return false
	}
	if writer == 0 {
		return seq == 1
	}
	return writer <= len(t.workers) && seq >= 1 && seq <= t.workers[writer-1].issued.Load()
}

func (w *worker) key() int {
	if w.zipf != nil {
		return w.zipf.Next()
	}
	return w.rng.Intn(len(w.t.keys))
}

func (w *worker) nextVal(key int) int {
	return encodeVal(w.id+1, key, w.issued.Add(1))
}

// fail counts a failed operation; after too many the connection gives up
// instead of spinning on a dead server for the rest of the run.
func (w *worker) fail(err error) (giveUp bool) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
	return w.failed > 100
}

func (w *worker) loop(p *phases) {
	keys := w.t.keys
	phase := 0
	w.marks = make([][numOpKinds]int, len(p.ends)+1)
	// enter closes every phase before next: on the way out, next is past the
	// last one, so a connection that gives up early still leaves every mark
	// set.
	enter := func(next int) {
		for ; phase < next; phase++ {
			for k := range w.samples {
				w.marks[phase+1][k] = len(w.samples[k])
			}
		}
	}
	defer func() { enter(len(p.ends)) }()
	for {
		start := time.Now()
		next, over := p.of(start, phase)
		enter(next)
		if over {
			return
		}
		kind := opGet
		if r := w.rng.Intn(100); r >= w.t.spec.getPct+w.t.spec.putPct {
			kind = opMPut
		} else if r >= w.t.spec.getPct {
			kind = opPut
		}
		w.attempted++
		w.nextReq++
		var err error
		var bytes int64
		switch kind {
		case opGet:
			k := w.key()
			out, e := w.c.Get(keys[k])
			if err = e; err == nil {
				if !out.Status.Linearized() {
					err = fmt.Errorf("GET returned %v", out.Status)
				} else if !w.t.validRead(k, out.Resp) {
					w.violations++
				}
			}
		case opPut:
			k := w.key()
			v := w.nextVal(k)
			out, e := w.c.Put(keys[k], v)
			if err = e; err == nil {
				if !out.Status.Linearized() {
					err = fmt.Errorf("PUT returned %v", out.Status)
				} else {
					w.lastAcked[k] = v
					bytes = int64(len(keys[k])) + 8
				}
			}
		case opMPut:
			for i := range w.entries {
				k := w.key()
				for dup := true; dup; { // distinct keys, so the batch's order cannot matter
					dup = false
					for _, e := range w.entries[:i] {
						if e.Key == keys[k] {
							dup, k = true, w.key()
							break
						}
					}
				}
				w.entries[i] = shardkv.KV{Key: keys[k], Val: w.nextVal(k)}
			}
			outs, e := w.c.MultiPut(w.entries)
			if err = e; err == nil {
				for i, out := range outs {
					if !out.Status.Linearized() {
						err = fmt.Errorf("MPUT entry returned %v", out.Status)
						continue
					}
					_, k, _ := decodeVal(w.entries[i].Val)
					w.lastAcked[k] = w.entries[i].Val
					bytes += int64(len(w.entries[i].Key)) + 8
				}
			}
		}
		end := time.Now()
		if err != nil {
			if w.fail(err) {
				return
			}
			continue
		}
		w.ops[phase]++
		if phase > 0 {
			w.samples[kind] = append(w.samples[kind], sat32(end.Sub(start)))
		}
		if p.traced(phase) {
			w.userBytes += bytes
			if len(w.spans) < cap(w.spans) {
				w.spans = append(w.spans, span{
					Kind: spanGet + uint8(kind), Node: uint8(w.id),
					Start: int64(start.Sub(w.t.origin)), End: int64(end.Sub(w.t.origin)),
					ID: w.c.SessionID()<<32 | w.nextReq, Bytes: bytes,
				})
			} else {
				w.spanDropped++
			}
		}
	}
}

// pacedReader is the open-loop GET stream at the standby: one request is
// due every 1/readerRate seconds whether or not the previous one has
// returned, and each is timed from when it was due.
type pacedReader struct {
	t   *traffic
	c   *client.Client
	rng *rand.Rand

	lastSeen []uint64 // per key: highest writer sequence number read so far

	ops        []int
	marks      []int    // len(samples) at the start of each phase, and at the end of the last
	samples    []uint32 // ns from intended send to reply
	lateness   []uint32 // ns from intended send to actual send
	service    []uint32 // ns from actual send to reply
	attempted  int
	failed     int
	violations int
	firstErr   error
}

func (r *pacedReader) loop(p *phases) {
	const interval = time.Second / readerRate
	keys := r.t.keys
	due := time.Now()
	phase := 0
	r.marks = make([]int, len(p.ends)+1)
	enter := func(next int) { // as in worker.loop
		for ; phase < next; phase++ {
			r.marks[phase+1] = len(r.samples)
		}
	}
	defer func() { enter(len(p.ends)) }()
	for ; ; due = due.Add(interval) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		next, over := p.of(due, phase)
		enter(next)
		if over {
			return
		}
		k := r.rng.Intn(len(keys))
		sent := time.Now()
		r.attempted++
		out, err := r.c.Get(keys[k])
		end := time.Now()
		if err == nil && !out.Status.Linearized() {
			err = fmt.Errorf("replica GET returned %v", out.Status)
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
			if r.failed > 100 {
				return
			}
			continue
		}
		// Check (3): never phantom, and per key never older than what this
		// reader has already seen (one writer, so its sequence numbers order
		// its writes).
		writer, _, seq := decodeVal(out.Resp)
		if writer == 0 {
			seq = 0 // the preload is older than every write
		}
		if !r.t.validRead(k, out.Resp) || seq < r.lastSeen[k] {
			r.violations++
		} else {
			r.lastSeen[k] = seq
		}
		r.ops[phase]++
		if phase > 0 {
			r.samples = append(r.samples, sat32(end.Sub(due)))
			r.lateness = append(r.lateness, sat32(sent.Sub(due)))
			r.service = append(r.service, sat32(end.Sub(sent)))
		}
	}
}

// totals sums the per-connection tallies.
func (t *traffic) totals() (attempted, failed, violations int, firstErr error) {
	for _, w := range t.workers {
		attempted += w.attempted
		failed += w.failed
		violations += w.violations
		if firstErr == nil {
			firstErr = w.firstErr
		}
	}
	if r := t.reader; r != nil {
		attempted += r.attempted
		failed += r.failed
		violations += r.violations
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	return
}

// closedLoopOps is the number of closed-loop operations completed in phase
// i — on repl-put-read, the primary's PUTs only.
func (t *traffic) closedLoopOps(i int) int {
	n := 0
	for _, w := range t.workers {
		n += w.ops[i]
	}
	return n
}

// mutations is the number of acked PUT and MPUT requests in phase i, the
// denominator of the fs.*_per_put metrics.
func (t *traffic) mutations(i int) int {
	n := 0
	for _, w := range t.workers {
		for _, kind := range []opKind{opPut, opMPut} {
			n += w.marks[i+1][kind] - w.marks[i][kind]
		}
	}
	return n
}

// latencies returns the latency samples of one kind of closed-loop
// operation in phases from … to-1, every connection's together, sorted, in
// nanoseconds.
func (t *traffic) latencies(kind opKind, from, to int) []uint32 {
	var all []uint32
	for _, w := range t.workers {
		all = append(all, w.samples[kind][w.marks[from][kind]:w.marks[to][kind]]...)
	}
	slices.Sort(all)
	return all
}

// replicaLatencies is latencies for the paced GETs at the standby, each
// timed from its intended send; nil on a workload without the reader.
func (t *traffic) replicaLatencies(from, to int) []uint32 {
	r := t.reader
	if r == nil {
		return nil
	}
	all := slices.Clone(r.samples[r.marks[from]:r.marks[to]])
	slices.Sort(all)
	return all
}

// acceptable reports whether v may be key's value once every connection
// has stopped: the last acked write of one of its writers, or the preload
// when nobody wrote it. Check (2), and the crash-image check's oracle.
func (t *traffic) acceptable(key, v int) bool {
	written := false
	for _, w := range t.workers {
		if last := w.lastAcked[key]; last != 0 {
			if v == last {
				return true
			}
			written = true
		}
	}
	return !written && v == encodeVal(0, key, 1)
}

// finalSweep reads every key back through read and counts the ones whose
// value is not acceptable.
func (t *traffic) finalSweep(read func(key string) (int, error)) (violations int, err error) {
	for k, key := range t.keys {
		v, err := read(key)
		if err != nil {
			return violations, err
		}
		if !t.acceptable(k, v) {
			violations++
		}
	}
	return violations, nil
}
