package linearize

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"detectable/internal/history"
	"detectable/internal/runtime"
	"detectable/internal/spec"
)

// ok is a linearized outcome with response resp.
func ok(resp int) runtime.Outcome[int] {
	return runtime.Outcome[int]{Status: runtime.StatusOK, Resp: resp}
}

var (
	failedOut  = runtime.Outcome[int]{Status: runtime.StatusFailed}
	noVerdict  = runtime.Outcome[int]{}
	notInvoked = runtime.Outcome[int]{Status: runtime.StatusNotInvoked}
)

// runSweep drives a Sweep through a script of ';'-separated steps and
// returns the index of the first step that convicted (-1 for none) and its
// reason. A step is one of
//
//	PUT 5 ok | DEL failed | GET 7    a whole operation (GET's response 7)
//	a: PUT 5 | a: DEL | a: GET       invoke, naming the operation a
//	a: ok | a: failed                return a write, or a read without effect
//	a: not-invoked | a: pending      ... not invoked, or with no verdict
//	a: 7                             return a read with response 7
//	a < b                            order write a before write b (Before)
//	stale 7                          a bounded-stale read of 7
func runSweep(t *testing.T, script string) (at int, why string) {
	t.Helper()
	var s Sweep
	open := map[string]int{}
	at = -1
	verdicts := map[string]runtime.Outcome[int]{"ok": ok(0), "failed": failedOut, "not-invoked": notInvoked, "pending": noVerdict}
	ret := func(op int, word string) string {
		if out, found := verdicts[word]; found {
			return s.Return(op, out)
		}
		resp, err := strconv.Atoi(word)
		if err != nil {
			t.Fatalf("bad verdict %q", word)
		}
		return s.Return(op, ok(resp))
	}
	invoke := func(f []string) int {
		switch f[0] {
		case "PUT":
			v, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("bad value in %q", f)
			}
			return s.Invoke(true, v)
		case "DEL":
			return s.Invoke(true, 0)
		case "GET":
			return s.Invoke(false, 0)
		}
		t.Fatalf("bad operation %q", f)
		return 0
	}
	for i, step := range strings.Split(script, ";") {
		var w string
		f := strings.Fields(step)
		switch {
		case f[0] == "stale":
			v, _ := strconv.Atoi(f[1])
			w = s.ReadStale(v)
		case len(f) == 3 && f[1] == "<":
			s.Before(open[f[0]], open[f[2]])
		case strings.HasSuffix(f[0], ":"):
			name := strings.TrimSuffix(f[0], ":")
			if op, ok := open[name]; ok {
				w = ret(op, f[1])
				delete(open, name)
			} else {
				open[name] = invoke(f[1:])
			}
		default:
			w = ret(invoke(f), f[len(f)-1])
		}
		if w != "" && at < 0 {
			at, why = i, w
		}
	}
	return at, why
}

// TestSweepVerdicts pins the register check on the shapes loadgen's storms
// produce, including every one its former hand-derived rules let through.
func TestSweepVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name, script string
		at           int    // the step that convicts; -1 for none
		why          string // a part of its reason
	}{
		// Must convict.
		{"(a) a linearized DEL then PUT 2, read 0", "PUT 1 ok; DEL ok; PUT 2 ok; GET 0", 3, "want 2"},
		{"(b) PUT 3 after a DEL, read 0", "DEL ok; PUT 3 ok; GET 0", 2, "want 3"},
		{"(c) an overwritten value read back", "PUT 4 ok; PUT 5 ok; GET 4", 2, "want 5"},
		{"(c) ... and read again", "PUT 4 ok; PUT 5 ok; GET 5; GET 4", 3, "want 5"},
		{"(d) 1A: a failed DEL's effect, convicted at the read", "PUT 100 ok; DEL failed; GET 0", 2, "want 100"},
		{"a failed PUT's value read", "PUT 7 failed; GET 7", 1, "want 0"},
		{"a phantom value", "PUT 1 ok; GET 555", 1, "want 1"},
		{"a PUT's value read, then its verdict failed", "p: PUT 7; GET 7; p: failed", 2, "a read already observed its effect"},
		{"a DEL's zero read, then its verdict failed", "PUT 8 ok; d: DEL; GET 0; d: failed", 3, "a read already observed its effect"},
		{"the only writer's expectation", "PUT 42 ok; GET 41", 1, "want 42"},
		{"a recovered read of a phantom", "g: GET; g: 555", 1, "want 0"},
		{"a read after a quiescent pair of writes", "a: PUT 1; b: PUT 2; a: ok; b: ok; GET 1; GET 2", 5, "want 1"},
		{"a value that could only have been overwritten before the read began", "a: PUT 1; b: PUT 2; a: ok; GET 2; GET 1", 4, "want 2"},
		// Must not convict.
		{"a DEL begun after the read, ok before it returned", "PUT 8 ok; g: GET; d: DEL; d: ok; g: 0", -1, ""},
		{"a read overlapping two writes sees the first", "g: GET; PUT 1 ok; PUT 2 ok; g: 1", -1, ""},
		{"concurrent writes either order", "a: PUT 1; b: PUT 2; a: ok; b: ok; GET 1; GET 1", -1, ""},
		{"a pending write read or not", "w: PUT 9; GET 0; GET 9; GET 9", -1, ""},
		{"a write without a verdict stays optional", "w: PUT 9; w: pending; GET 0; GET 9", -1, ""},
		{"a failed read leaves", "g: GET; PUT 3 ok; g: failed; GET 3", -1, ""},
		{"a DEL never invoked", "PUT 5 ok; DEL not-invoked; GET 5", -1, ""},
		{"a failed write that nobody saw", "PUT 1 ok; PUT 2 failed; GET 1; DEL failed; GET 1", -1, ""},
		{"zero after a linearized DEL", "PUT 1 ok; DEL ok; GET 0", -1, ""},
		// Reads from a bounded-stale replica, armed by a first stale read of 0.
		{"stale: zero after a linearized PUT", "stale 0; PUT 1 ok; stale 0", -1, ""},
		{"stale: an overwritten value", "stale 0; PUT 1 ok; PUT 2 ok; stale 1", -1, ""},
		{"stale: a failed write's value", "stale 0; PUT 7 failed; stale 7", 2, "its write's verdict was not linearized"},
		{"stale: a phantom value", "stale 0; PUT 1 ok; stale 555", 2, "no write of this key carried it"},
		{"stale: a value read, then its write failed", "stale 0; p: PUT 7; stale 7; p: failed", 3, "a read already returned its value"},
		// One request's writes of a register, in entry order.
		{"batch: b read, then a", "a: PUT 1; b: PUT 2; a < b; GET 2; GET 1", 4, "want 2"},
		{"the same writes unordered", "a: PUT 1; b: PUT 2; GET 2; GET 1", -1, ""},
		{"batch: a and b read in order", "a: PUT 1; b: PUT 2; a < b; GET 1; GET 2; a: ok; b: ok", -1, ""},
		{"batch: b read, a overwritten, then read", "a: PUT 1; b: PUT 2; a < b; GET 2; g: GET; PUT 3 ok; g: 1", 6, "want 3"},
		{"batch: b read, another write, then a ok", "a: PUT 1; b: PUT 2; a < b; GET 2; PUT 4 ok; a: ok; b: ok", -1, ""},
		{"batch: b read, then a ok", "a: PUT 1; b: PUT 2; a < b; GET 2; b: ok; a: ok; GET 2", -1, ""},
		{"batch: b returned, then a ok and read", "a: PUT 1; b: PUT 2; a < b; b: ok; a: ok; GET 1", 5, "want 2"},
		{"batch: b returned, then a failed", "a: PUT 1; b: PUT 2; a < b; b: ok; a: failed; GET 2", -1, ""},
		{"batch: a pending, b returned, then a read", "a: PUT 1; b: PUT 2; a < b; a: pending; b: ok; GET 2; GET 1", 6, "want 2"},
		{"batch: c read, then a", "a: PUT 1; b: PUT 2; a < b; c: PUT 3; a < c; b < c; GET 3; GET 1", 7, "want 3"},
		{"batch: b read, a ok though the read saw only b", "a: PUT 1; b: PUT 2; a < b; g: GET; GET 2; a: ok; g: 1", -1, ""},
	} {
		at, why := runSweep(t, tc.script)
		if at != tc.at || !strings.Contains(why, tc.why) {
			t.Errorf("%s: convicted at step %d (%q), want step %d (%q)", tc.name, at, why, tc.at, tc.why)
		}
	}
}

// TestSweepGoesOnAfterAConviction: after a violation the check adopts the
// operation's claim, so one lie is counted once and later operations are
// judged against it.
func TestSweepGoesOnAfterAConviction(t *testing.T) {
	var s Sweep
	s.Return(s.Invoke(true, 4), ok(0))
	if why := s.Return(s.Invoke(false, 0), ok(9)); why == "" {
		t.Fatal("a phantom read was not convicted")
	}
	if why := s.Return(s.Invoke(false, 0), ok(9)); why != "" {
		t.Fatalf("the adopted value convicted again: %s", why)
	}
}

// registerHistory turns fuzz input into a register history of at most
// MaxOps operations over up to four processes: each operation takes effect
// on a real register at a point inside its interval, but a byte can make
// a read answer wrongly, a write's effect go missing or land despite a
// failed verdict, and a process vanish with its request open — so the
// history is sometimes linearizable and sometimes not. A request is one
// operation or a batch of two or three writes, whose entries take effect in
// entry order unless a byte makes the server swap the first two, and whose
// verdicts come back in entry order or, by a byte, the reverse. Entry j of
// process p's request has PID p + 4j. gone maps each vanished operation's
// PID to the number of events recorded when it vanished, and after maps a
// batched write's invocation (an event index) to its earlier entries'.
func registerHistory(data []byte) (events []history.Event, gone map[int]int, after map[int][]int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	procs := 1 + next()%4
	type proc struct {
		open, dead bool
		ops        []spec.Operation // the request's entries
		order      []int            // the entries in the order they take effect
		done       int              // how many of them took effect
		resps      []int
	}
	ps := make([]proc, procs)
	gone, after = map[int]int{}, map[int][]int{}
	reg, ops, val := 0, 0, 0
	for len(data) > 0 {
		pid := next() % procs
		p := &ps[pid]
		if p.dead {
			continue
		}
		switch b := next(); {
		case !p.open:
			n := 1
			if b%4 == 3 {
				n = 2 + b/4%2
			}
			if ops+n > MaxOps {
				continue
			}
			ops += n
			p.ops, p.order, p.resps = p.ops[:0], p.order[:0], p.resps[:0]
			var invs []int
			for j := range n {
				op := spec.NewOp(spec.MethodWrite, 0)
				switch {
				case n == 1 && b%4 == 0:
					op = spec.NewOp(spec.MethodRead)
				case n > 1 || b%4 == 1:
					val++
					op = spec.NewOp(spec.MethodWrite, val)
				}
				if j > 0 {
					after[len(events)] = slices.Clone(invs)
				}
				invs = append(invs, len(events))
				events = append(events, history.Event{Kind: history.KindInvoke, PID: pid + 4*j, Op: op})
				p.ops, p.order, p.resps = append(p.ops, op), append(p.order, j), append(p.resps, 0)
			}
			if n > 1 && b/8%4 == 0 {
				p.order[0], p.order[1] = 1, 0 // the server swaps the first two
			}
			p.open, p.done = true, 0
		case p.done < len(p.ops) && b%4 != 0:
			j := p.order[p.done] // the effect
			p.done++
			p.resps[j] = reg
			if op := p.ops[j]; op.Method == spec.MethodWrite {
				if p.resps[j] = spec.Ack; b%16 != 1 {
					reg = op.Args[0]
				}
			}
		case b%8 == 0:
			p.dead = true
			for j := range p.ops {
				gone[pid+4*j] = len(events)
			}
		case b%8 < 3:
			// A crash, then a recovery of each entry that tells the truth
			// unless b says so.
			events = append(events, history.Event{Kind: history.KindCrash})
			for j := range p.ops {
				e := history.Event{Kind: history.KindRecoverReturn, PID: pid + 4*j, Resp: p.resps[j]}
				if fail := !slices.Contains(p.order[:p.done], j); b%8 == 2 || fail {
					e = history.Event{Kind: history.KindRecoverReturn, PID: pid + 4*j, Fail: fail != (b%32 == 2)}
				}
				events = append(events, e)
			}
			p.open = false
		case p.done == len(p.ops):
			for i := range p.ops {
				j := i
				if b%64 >= 32 {
					j = len(p.ops) - 1 - i // the verdicts come back last entry first
				}
				resp := p.resps[j]
				if b%16 == 3 && p.ops[j].Method == spec.MethodRead {
					resp = b % 3
				}
				events = append(events, history.Event{Kind: history.KindReturn, PID: pid + 4*j, Resp: resp})
			}
			p.open = false
		}
	}
	return events, gone, after
}

// sweepEvents runs a history through one Sweep, ordering each batched
// write after its request's earlier entries and ending each vanished
// operation with no verdict where it vanished, and reports whether no step
// convicted.
func sweepEvents(events []history.Event, gone map[int]int, after map[int][]int) bool {
	var s Sweep
	open := map[int]int{}  // by PID
	byInv := map[int]int{} // by invocation event
	clean := true
	for i := 0; i <= len(events); i++ {
		for pid, at := range gone {
			if at == i {
				clean = s.Return(open[pid], noVerdict) == "" && clean
			}
		}
		if i == len(events) {
			break
		}
		why := ""
		switch e := events[i]; e.Kind {
		case history.KindInvoke:
			v := 0
			if e.Op.Method == spec.MethodWrite {
				v = e.Op.Args[0]
			}
			op := s.Invoke(e.Op.Method == spec.MethodWrite, v)
			open[e.PID], byInv[i] = op, op
			for _, a := range after[i] {
				s.Before(byInv[a], op)
			}
		case history.KindReturn:
			why = s.Return(open[e.PID], ok(e.Resp))
		case history.KindRecoverReturn:
			out := runtime.Outcome[int]{Status: runtime.StatusRecovered, Resp: e.Resp, Crashes: 1}
			if e.Fail {
				out = failedOut
			}
			why = s.Return(open[e.PID], out)
		}
		clean = clean && why == ""
	}
	return clean
}

// FuzzSweepAgainstCheck holds the online register check to the exhaustive
// search: on every history, crashes, failed verdicts, pending operations
// and batches whose server may run them out of order included, both give
// one verdict.
func FuzzSweepAgainstCheck(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 5, 0, 5})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0, 0, 6, 1, 1, 2, 6, 1, 7, 0, 1, 0, 3, 2, 9})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 0, 0, 2, 0, 1, 0, 8, 0, 2, 0, 19, 0, 4})
	f.Add([]byte{1, 0, 3, 1, 0, 1, 4, 0, 0, 1, 5, 0, 0, 1, 7, 0, 5, 0, 1, 0, 0, 0, 4})
	f.Add([]byte{1, 0, 35, 1, 0, 1, 4, 0, 0, 1, 5, 0, 0, 1, 7, 0, 5, 0, 1, 0, 0, 0, 4})
	f.Add([]byte("the register fuzz seed with several processes and crashes 0123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if why := sweepVersusCheck(data); why != "" {
			t.Fatal(why)
		}
	})
}

// TestSweepAgreesWithCheck holds the fuzz's property on 100 000 histories
// drawn from a fixed seed: plain random input finds a disagreement sooner
// than mutations of the fuzz's seeds do.
func TestSweepAgreesWithCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 100000 {
		data := make([]byte, 10+rng.Intn(50))
		rng.Read(data)
		if why := sweepVersusCheck(data); why != "" {
			t.Fatalf("history %d: %s", i, why)
		}
	}
}

// sweepVersusCheck runs the history data encodes through Sweep and Check
// and says how their verdicts differ, or "".
func sweepVersusCheck(data []byte) string {
	events, gone, after := registerHistory(data)
	recs, _, err := Collect(events)
	if err != nil {
		return err.Error()
	}
	rec := map[int]int{} // by invocation event
	for i, r := range recs {
		rec[r.Inv] = i
	}
	for inv, as := range after {
		for _, a := range as {
			i, iok := rec[inv]
			if j, jok := rec[a]; iok && jok {
				recs[i].After |= 1 << j
			}
		}
	}
	want := Check(spec.Register{}, recs)
	if got := sweepEvents(events, gone, after); got != want {
		return fmt.Sprintf("sweep says linearizable=%v, Check says %v, on\n%v\nordered %v", got, want, events, after)
	}
	return ""
}

// BenchmarkSweep reports ns per event (an invocation or a return) on a
// storm-shaped register history: writes of unique values, DELs and reads,
// with up to depth operations in flight, each returning in turn. With
// batch > 1 the slots go in requests of batch entries, each write ordered
// after its request's earlier ones, as loadgen orders an MPUT's.
func BenchmarkSweep(b *testing.B) {
	for _, c := range []struct {
		name         string
		depth, batch int
	}{{"inflight=1", 1, 1}, {"inflight=4", 4, 1}, {"inflight=16", 16, 1}, {"inflight=16,batch=4", 16, 4}} {
		depth, batch := c.depth, c.batch
		b.Run(c.name, func(b *testing.B) {
			var s Sweep
			ops := make([]int, depth)
			vals := make([]int, depth)
			val := 0
			invoke := func(i int) {
				switch i % 10 {
				case 0, 3, 6:
					ops[i%depth], vals[i%depth] = s.Invoke(false, 0), -1
				case 9:
					ops[i%depth], vals[i%depth] = s.Invoke(true, 0), 0
				default:
					val++
					ops[i%depth], vals[i%depth] = s.Invoke(true, val), val
				}
				if batch == 1 {
					return
				}
				for j, k := i%depth, i%depth/batch*batch; k < j && vals[j] >= 0; k++ {
					if vals[k] >= 0 {
						s.Before(ops[k], ops[j])
					}
				}
			}
			for i := 0; i < depth; i++ {
				invoke(i)
			}
			cur := 0
			b.ResetTimer()
			for i := depth; i < b.N/2+depth; i++ {
				j := i % depth
				if vals[j] < 0 {
					if why := s.Return(ops[j], ok(cur)); why != "" {
						b.Fatal(why)
					}
				} else {
					s.Return(ops[j], ok(0))
					cur = vals[j]
				}
				invoke(i)
			}
		})
	}
}

// TestSweepPastTheCapConvictsNothing runs linearizable histories with 16
// processes, concurrent enough to pass maxFamilies, and requires that the
// collapse there never invents a violation, and that the check counts the
// merges it did.
func TestSweepPastTheCapConvictsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	merges := 0
	for range 20 {
		merges += linearizableHistory(t, rng, 16).Merges()
	}
	if merges == 0 {
		t.Fatal("no history merged families past the cap")
	}
}

// TestSweepBelowTheCapIsExact: histories of four processes stay below
// maxFamilies, so the check merges nothing and says so — its verdicts were
// exact.
func TestSweepBelowTheCapIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := range 20 {
		if n := linearizableHistory(t, rng, 4).Merges(); n != 0 {
			t.Fatalf("round %d: %d merges with four processes, want 0", round, n)
		}
	}
}

// TestSweepPastTheCapHoldsNothingAgainstBatches: linearizable histories of
// 12 processes whose requests are often batches of 2–4 ordered writes,
// run in entry order, with verdicts returned in entry order or shuffled.
// Families merge past the cap with writes held, and still nothing is
// convicted.
func TestSweepPastTheCapHoldsNothingAgainstBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	merges := 0
	for round := range 20 {
		type request struct{ ops, vals, resps []int } // a read's val is -1
		var s Sweep
		ps := make([]*request, 12)
		done := make([]int, len(ps))
		reg, val := 0, 0
		for step := range 4000 {
			i := rng.Intn(len(ps))
			switch p := ps[i]; {
			case p == nil:
				p = &request{}
				if rng.Intn(4) == 0 {
					p.ops, p.vals = []int{s.Invoke(false, 0)}, []int{-1}
				} else {
					for j := range 1 + rng.Intn(4) {
						v := 0 // a DEL
						if rng.Intn(10) > 0 {
							val++
							v = val
						}
						p.vals, p.ops = append(p.vals, v), append(p.ops, s.Invoke(true, v))
						for k := range j {
							s.Before(p.ops[k], p.ops[j])
						}
					}
				}
				p.resps, ps[i], done[i] = make([]int, len(p.ops)), p, 0
			case done[i] < len(p.ops):
				if j := done[i]; p.vals[j] < 0 {
					p.resps[j] = reg
				} else {
					reg = p.vals[j]
				}
				done[i]++
			default:
				order := rng.Perm(len(p.ops))
				if rng.Intn(2) == 0 {
					slices.Sort(order)
				}
				for _, j := range order {
					if why := s.Return(p.ops[j], ok(p.resps[j])); why != "" {
						t.Fatalf("round %d, step %d: a linearizable history convicted: %s", round, step, why)
					}
				}
				ps[i] = nil
			}
		}
		merges += s.Merges()
	}
	if merges == 0 {
		t.Fatal("no history merged families past the cap")
	}
}

// linearizableHistory checks 5000 random steps of procs processes on one
// register, each operation returning what the register held at its
// linearization point, and returns the check. A conviction fails t.
func linearizableHistory(t *testing.T, rng *rand.Rand, procs int) *Sweep {
	t.Helper()
	type proc struct {
		op          int // the Sweep's handle; -1 when idle
		write, done bool
		val, resp   int
	}
	var s Sweep
	ps := make([]proc, procs)
	for i := range ps {
		ps[i].op = -1
	}
	reg, val := 0, 0
	for step := 0; step < 5000; step++ {
		p := &ps[rng.Intn(len(ps))]
		switch {
		case p.op < 0:
			p.write, p.done = rng.Intn(3) > 0, false
			if p.val = 0; p.write && rng.Intn(10) > 0 {
				val++
				p.val = val
			}
			p.op = s.Invoke(p.write, p.val)
		case !p.done:
			p.done, p.resp = true, reg
			if p.write {
				reg = p.val
			}
		default:
			if why := s.Return(p.op, ok(p.resp)); why != "" {
				t.Fatalf("step %d: a linearizable history of %d processes convicted: %s", step, procs, why)
			}
			p.op = -1
		}
	}
	return &s
}
