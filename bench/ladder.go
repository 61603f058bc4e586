package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"detectable/internal/client"
	"detectable/internal/durable"
	"detectable/internal/history"
	"detectable/internal/kv"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/rw"
	"detectable/internal/server"
	"detectable/internal/shardkv"
	"detectable/internal/spec"
	"detectable/internal/workload"
)

// The ladder is part (b) of a traced run: one goroutine, pid 0, N = 8, the
// benchmark's keys and a seeded op stream, one rung per layer boundary of
// the north star (nvm primitive → rw op → kv → shardkv → server.handle →
// TCP → fsync epoch → replicated epoch). Every rung is the median of five
// batches, so subtracting adjacent rungs gives what each layer adds.
//
// The ladder does not depend on the traffic, so it is climbed once, not
// once per workload: each workload's traced run climbs the rungs that stand
// on its own kind of stack (workloadSpec.ladder), and the four traced runs
// together are the whole ladder.
//
// Rung budgets are shares of the time the run leaves for the ladder: a CPU
// rung gets one unit, a rung that fsyncs or crosses a socket more.
const (
	ioWeight = 1.5 // durable.sync_us, durable.commit_us, server.handle_put_dur_us, net.echo_rtt_us
	servedWt = 3.0 // client.* rungs
	// ladderSetupShare of the ladder's time is left for bringing up the
	// part's served stack.
	ladderSetupShare = 0.25
)

// ladderPart is the rungs one workload's traced run climbs. units is the
// sum of their weights, stated up front so that the part's time can be
// shared out before the first rung runs; runLadder checks it against what
// the rungs used.
type ladderPart struct {
	units float64
	climb func(*ladderRun) error
}

var (
	// The object layers and the read path of a non-durable stack: 9 object
	// rungs, shardkv.get, encode, handle_get, the echo, client.get.
	readRungs = ladderPart{12 + ioWeight + servedWt, (*ladderRun).readRungs}
	// The write path of a non-durable stack: shardkv put, mput16 and the
	// 2-pid mix, handle_put, handle_mput16, client.put_mem.
	writeRungs = ladderPart{5 + servedWt, (*ladderRun).writeRungs}
	// The record log alone (append, sync), then a durable stack: commit,
	// handle_put_dur, client.put_dur.
	durableRungs = ladderPart{1 + 3*ioWeight + servedWt, (*ladderRun).durableRungs}
	replRungs    = ladderPart{servedWt, (*ladderRun).replRungs}
)

const rungBatches = 5

var sink int // keeps measured loads alive

// timeRung calibrates a batch size so that rungBatches batches fill budget,
// runs them, and returns the median nanoseconds per operation. body runs n
// operations and returns the time they took, so a rung can keep its own
// set-up out of the measurement.
func timeRung(budget time.Duration, body func(n int) time.Duration) (nsPerOp float64, ops int) {
	// The doubling runs take about one batch's time more, and warm the rung
	// up: it goes on until a run is half a batch long, so that slow first
	// calls (cold caches, first-touch page faults) cannot size the batches.
	target := budget / (rungBatches + 1)
	n := 1
	var d time.Duration
	for {
		d = body(n)
		if d >= target/2 || n >= 1<<30 {
			break
		}
		n *= 2
	}
	if d > 0 {
		n = max(1, int(float64(n)*float64(target)/float64(d)))
	}
	per := make([]float64, rungBatches)
	for i := range per {
		per[i] = float64(body(n)) / float64(n)
	}
	return median(per), n * rungBatches
}

// loop times n calls of f.
func loop(n int, f func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(start)
}

// mallocsPer returns the heap allocations per call of f over n calls.
func mallocsPer(n int, f func(i int)) float64 {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	goruntime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// opStream is the ladder's seeded key and op sequence, generated before
// any rung runs so that no rung pays for the generator.
type opStream struct {
	keys    []string
	uniform []int    // key indices, uniform
	zipf    []int    // key indices, Zipf 0.99
	kinds   []opKind // the mix workloads' 50/40/10
}

const streamLen = 1 << 14

func newOpStream(keys []string, seed int64) *opStream {
	rng := rand.New(rand.NewSource(workload.WorkerSeed(seed, 1, 0)))
	z := workload.NewZipf(rng, len(keys), zipfTheta)
	s := &opStream{keys: keys, uniform: make([]int, streamLen), zipf: make([]int, streamLen), kinds: make([]opKind, streamLen)}
	for i := range s.uniform {
		s.uniform[i] = rng.Intn(len(keys))
		s.zipf[i] = z.Next()
		switch r := rng.Intn(100); {
		case r < 50:
			s.kinds[i] = opGet
		case r < 90:
			s.kinds[i] = opPut
		default:
			s.kinds[i] = opMPut
		}
	}
	return s
}

func (s *opStream) key(i int) string { return s.keys[s.uniform[i%streamLen]] }

// entries fills dst with the mputBatch entries of batch i.
func (s *opStream) entries(dst []shardkv.KV, idx []int, i int) {
	for j := range dst {
		k := idx[(i*mputBatch+j)%streamLen]
		dst[j] = shardkv.KV{Key: s.keys[k], Val: i}
	}
}

type ladderRun struct {
	cfg    runConfig
	ms     *metricSet
	unit   time.Duration
	used   float64 // weights of the rungs climbed so far
	stream *opStream
}

func (l *ladderRun) rung(name string, weight float64, div float64, body func(n int) time.Duration) float64 {
	l.used += weight
	ns, ops := timeRung(time.Duration(float64(l.unit)*weight), body)
	l.ms.set(name, ns/div, ops)
	return ns / div
}

func (l *ladderRun) ns(name string, f func(i int)) float64 {
	return l.rung(name, 1, 1, func(n int) time.Duration { return loop(n, f) })
}

// newSystem is one shard's system as shardkv builds it: N processes and the
// striped diagnostic ring.
func newSystem() *runtime.System {
	sys := runtime.NewSystem(numProcs)
	sys.SetHistory(history.NewShardedRing(shardkv.DefaultRingCapacity, numProcs))
	return sys
}

func runLadder(cfg runConfig, budget time.Duration, ms *metricSet) error {
	part := cfg.spec.ladder
	l := &ladderRun{
		cfg: cfg, ms: ms,
		unit:   time.Duration(float64(budget) * (1 - ladderSetupShare) / part.units),
		stream: newOpStream(benchKeys(cfg.keys), cfg.seed),
	}
	if err := part.climb(l); err != nil {
		return err
	}
	if l.used != part.units {
		return fmt.Errorf("%s's rungs weigh %g units, its ladderPart says %g", cfg.spec.Name, l.used, part.units)
	}
	return nil
}

// objectRungs are the rungs below the store: nvm cells, one rw register,
// the history ring, one kv store.
func (l *ladderRun) objectRungs() {
	sp := nvm.NewSpace()
	cell := nvm.NewCell(sp, 0)
	ctx := sp.AcquireCtx(0, nil)
	l.ns("nvm.load_ns", func(int) { sink += cell.Load(ctx) })
	l.ns("nvm.store_ns", func(i int) { cell.Store(ctx, i) })
	v := cell.Peek()
	l.ns("nvm.cas_ns", func(int) {
		cell.CompareAndSwap(ctx, v, v+1)
		v++
	})
	sp.ReleaseCtx(ctx)

	sys := newSystem()
	reg := rw.NewInt(sys, 0)
	stats := sys.Space().Stats()
	const counted = 1000
	before := stats.Total()
	for i := 0; i < counted; i++ {
		sink += reg.Read(0).Resp
	}
	l.ms.set("nvm.prims_per_get", float64(stats.Total()-before)/counted, counted)
	before = stats.Total()
	for i := 0; i < counted; i++ {
		reg.Write(0, i)
	}
	l.ms.set("nvm.prims_per_put", float64(stats.Total()-before)/counted, counted)
	l.ns("rw.read_ns", func(int) { sink += reg.Read(0).Resp })
	l.ns("rw.write_ns", func(i int) { reg.Write(0, i) })

	ring := history.NewRing(shardkv.DefaultRingCapacity)
	op := spec.NewOp("write", 1)
	l.ns("history.record_ns", func(int) {
		ring.Invoke(0, op)
		ring.Return(0, 0)
	})

	ksys := newSystem()
	store := kv.New(ksys)
	for i, key := range l.stream.keys {
		store.Put(0, key, i+1)
	}
	l.ms.set("nvm.cells_per_key", float64(ksys.Space().CellCount())/float64(len(l.stream.keys)), len(l.stream.keys))
	l.ns("kv.get_ns", func(i int) { sink += store.Get(0, l.stream.key(i)).Resp })
	l.ns("kv.put_ns", func(i int) { store.Put(0, l.stream.key(i), i) })
	l.ns("kv.peek_ns", func(i int) { sink += store.Peek(l.stream.key(i)) })
}

func (l *ladderRun) stack(dur, replica bool) (*stack, error) {
	return startStack(stackConfig{durable: dur, replica: replica, keys: l.cfg.keys, tmpRoot: l.cfg.tmpRoot})
}

// payloads are pre-encoded requests for the server.handle rungs, so those
// time the handler and not the encoder; the request ID is patched per call.
type payloads struct {
	get, put, mput [][]byte
}

func (l *ladderRun) payloads() payloads {
	const pool = 512
	var p payloads
	entries := make([]shardkv.KV, mputBatch)
	for i := 0; i < pool; i++ {
		p.get = append(p.get, server.AppendGet(nil, 1, 0, l.stream.key(i)))
		p.put = append(p.put, server.AppendPut(nil, 1, 0, l.stream.key(i), i+1))
		l.stream.entries(entries, l.stream.uniform, i)
		p.mput = append(p.mput, server.AppendMPut(nil, 1, entries))
	}
	return p
}

func handle(ls *server.LoopbackSession, pool [][]byte, i int) {
	req := pool[i%len(pool)]
	server.PatchReqID(req, ls.NextID())
	sink += len(ls.Handle(req))
}

// readRungs are the object rungs and then, on one non-durable served
// stack, the read path: shardkv called directly, server.handle through a
// loopback session, a raw TCP echo, and one client connection.
func (l *ladderRun) readRungs() error {
	l.objectRungs()
	st, err := l.stack(false, false)
	if err != nil {
		return err
	}
	defer st.close() //nolint:errcheck // nothing on disk
	store := st.primary.store
	s := l.stream

	pid, ok := store.AcquireProc()
	if !ok {
		return fmt.Errorf("no free process slot")
	}
	l.ns("shardkv.get_ns", func(i int) { sink += store.Get(pid, s.key(i)).Resp })
	store.ReleaseProc(pid)

	ls, err := st.primary.srv.NewLoopbackSession()
	if err != nil {
		return err
	}
	p := l.payloads()
	var enc []byte
	l.ns("server.encode_ns", func(i int) { enc = server.AppendGet(enc[:0], uint64(i), 0, s.key(i)) })
	handleGet := l.ns("server.handle_get_ns", func(i int) { handle(ls, p.get, i) })
	ls.Close()

	echo, err := l.echoRTT(p.get[0])
	if err != nil {
		return err
	}

	c, err := client.Dial(st.primary.addr())
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // nothing durable behind it
	get, err := l.clientRung("client.get_us", func(i int) error { _, err := c.Get(s.key(i)); return err })
	if err != nil {
		return err
	}
	l.ms.set("ladder.get_residual_us", get-echo-handleGet/1e3, 0)
	return nil
}

// writeRungs are the write path of one non-durable served stack.
func (l *ladderRun) writeRungs() error {
	st, err := l.stack(false, false)
	if err != nil {
		return err
	}
	defer st.close() //nolint:errcheck // nothing on disk
	store := st.primary.store
	s := l.stream

	pid, ok := store.AcquireProc()
	if !ok {
		return fmt.Errorf("no free process slot")
	}
	l.ns("shardkv.put_ns", func(i int) { store.Put(pid, s.key(i), i+1) })
	var scratch shardkv.BatchScratch
	entries := make([]shardkv.KV, mputBatch)
	mput := func(i int) {
		s.entries(entries, s.uniform, i)
		store.MultiPutWith(&scratch, pid, entries)
	}
	l.ns("shardkv.mput16_ns", mput)
	l.ms.set("shardkv.mput16_allocs", mallocsPer(200, mput), 200)
	store.ReleaseProc(pid)
	if err := l.mix2p(store); err != nil {
		return err
	}

	ls, err := st.primary.srv.NewLoopbackSession()
	if err != nil {
		return err
	}
	p := l.payloads()
	l.ns("server.handle_put_ns", func(i int) { handle(ls, p.put, i) })
	l.ns("server.handle_mput16_ns", func(i int) { handle(ls, p.mput, i) })
	l.ms.set("server.handle_allocs", mallocsPer(2000, func(i int) {
		switch s.kinds[i%streamLen] {
		case opGet:
			handle(ls, p.get, i)
		case opPut:
			handle(ls, p.put, i)
		default:
			handle(ls, p.mput, i)
		}
	}), 2000)
	ls.Close()

	c, err := client.Dial(st.primary.addr())
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // nothing durable behind it
	_, err = l.clientRung("client.put_mem_us", func(i int) error { _, err := c.Put(s.key(i), i+1); return err })
	return err
}

// mix2p runs the mix workloads' op stream on two process slots with no
// server in between, and reports the mean time one slot spends per op.
func (l *ladderRun) mix2p(store *shardkv.Store) error {
	const pids = 2
	s := l.stream
	l.used++
	deadline := time.Now().Add(l.unit)
	counts := make([]int, pids)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < pids; w++ {
		pid, ok := store.AcquireProc()
		if !ok {
			return fmt.Errorf("no free process slot")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer store.ReleaseProc(pid)
			var scratch shardkv.BatchScratch
			entries := make([]shardkv.KV, mputBatch)
			n := 0
			defer func() { counts[w] = n }()
			for i := w * 7919; ; i++ {
				if n%64 == 0 && !time.Now().Before(deadline) { // one clock read per 64 ops
					return
				}
				key := s.keys[s.zipf[i%streamLen]]
				switch s.kinds[i%streamLen] {
				case opGet:
					store.Get(pid, key)
				case opPut:
					store.Put(pid, key, i+1)
				default:
					s.entries(entries, s.zipf, i)
					store.MultiPutWith(&scratch, pid, entries)
				}
				n++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, n := range counts {
		total += n
	}
	l.ms.set("shardkv.mix_zipf_2p_ns", float64(elapsed)*pids/float64(total), total)
	return nil
}

// echoRTT is the floor under a served GET: a GET-sized frame written and
// read back over loopback TCP with the server's and client's own framing
// (buffered writer, flush, ReadFrameInto), and no handler in between.
func (l *ladderRun) echoRTT(frame []byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		var buf []byte
		for {
			payload, err := server.ReadFrameInto(br, &buf)
			if err != nil {
				return
			}
			if server.WriteFrame(bw, payload) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		wg.Wait()
		return 0, err
	}
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	var buf []byte
	var ioErr error
	rtt := l.rung("net.echo_rtt_us", ioWeight, 1e3, func(n int) time.Duration {
		return loop(n, func(int) {
			if err := server.WriteFrame(bw, frame); err != nil {
				ioErr = err
			} else if err := bw.Flush(); err != nil {
				ioErr = err
			} else if _, err := server.ReadFrameInto(br, &buf); err != nil {
				ioErr = err
			}
		})
	})
	conn.Close()
	wg.Wait()
	return rtt, ioErr
}

// clientRung is one served rung: a single connection calling f in a closed
// loop.
func (l *ladderRun) clientRung(name string, f func(i int) error) (float64, error) {
	var firstErr error
	us := l.rung(name, servedWt, 1e3, func(n int) time.Duration {
		return loop(n, func(i int) {
			if err := f(i); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	})
	if firstErr != nil {
		return 0, fmt.Errorf("%s: %w", name, firstErr)
	}
	return us, nil
}

// durableRungs are the record log alone and then a durable served stack.
func (l *ladderRun) durableRungs() error {
	if err := l.logRungs(); err != nil {
		return err
	}
	return l.durableStackRungs()
}

// logRungs time the record log alone: staging one 64-byte record, and the
// barrier that makes it durable.
func (l *ladderRun) logRungs() error {
	dir, err := os.MkdirTemp(l.cfg.tmpRoot, "log-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := durable.OpenLog(filepath.Join(dir, "rung.log"), func([]byte) error { return nil })
	if err != nil {
		return err
	}
	rec := make([]byte, 64)
	var ioErr error
	note := func(err error) {
		if err != nil && ioErr == nil {
			ioErr = err
		}
	}
	l.rung("durable.append_ns", 1, 1, func(n int) time.Duration {
		// Appends only stage records in memory, so drop them every chunk,
		// outside the timed loop, to keep the staging buffer small.
		const chunk = 1 << 16
		var d time.Duration
		for left := n; left > 0; left -= chunk {
			d += loop(min(left, chunk), func(int) { note(log.Append(rec)) })
			note(log.Reset())
		}
		return d
	})
	l.rung("durable.sync_us", ioWeight, 1e3, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			note(log.Append(rec))
			start := time.Now()
			note(log.Sync())
			d += time.Since(start)
		}
		note(log.Reset())
		return d
	})
	note(log.Close())
	return ioErr
}

// durableStackRungs run on a durable served stack with group commit: a
// solo commit, server.handle of a PUT, and one client connection.
func (l *ladderRun) durableStackRungs() error {
	st, err := l.stack(true, false)
	if err != nil {
		return err
	}
	defer st.close() //nolint:errcheck // directories are scratch
	s := l.stream
	db := st.primary.db

	// A solo commit as the server makes one: journal the mutation into its
	// shard log, then CommitOutcome, which returns on the epoch boundary.
	const sid = 1 << 40 // far from any session the server mints
	if err := db.AppendHello(sid, numProcs-1); err != nil {
		return err
	}
	reply := make([]byte, 10)
	var ioErr error
	l.rung("durable.commit_us", ioWeight, 1e3, func(n int) time.Duration {
		return loop(n, func(i int) {
			key := s.key(i)
			db.ShardBacking(shardkv.ShardIndex(key, numShards)).Persist(key, int64(i+1))
			if err := db.CommitOutcome(sid, uint64(i+1), reply); err != nil && ioErr == nil {
				ioErr = err
			}
		})
	})
	if ioErr != nil {
		return ioErr
	}
	if err := db.AppendEnd(sid); err != nil {
		return err
	}

	ls, err := st.primary.srv.NewLoopbackSession()
	if err != nil {
		return err
	}
	p := l.payloads()
	l.rung("server.handle_put_dur_us", ioWeight, 1e3, func(n int) time.Duration {
		return loop(n, func(i int) { handle(ls, p.put, i) })
	})
	ls.Close()

	c, err := client.Dial(st.primary.addr())
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // the stack is discarded
	_, err = l.clientRung("client.put_dur_us", func(i int) error { _, err := c.Put(s.key(i), i+1); return err })
	return err
}

// replRungs run on a durable primary gated by a sync standby.
func (l *ladderRun) replRungs() error {
	st, err := l.stack(true, true)
	if err != nil {
		return err
	}
	defer st.close() //nolint:errcheck // directories are scratch
	c, err := client.Dial(st.primary.addr())
	if err != nil {
		return err
	}
	defer c.Close() //nolint:errcheck // the stack is discarded
	_, err = l.clientRung("client.put_repl_us", func(i int) error { _, err := c.Put(l.stream.key(i), i+1); return err })
	return err
}
