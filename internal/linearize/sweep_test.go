package linearize

import (
	"math/rand"
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
// failed verdict, and a process vanish with its operation open — so the
// history is sometimes linearizable and sometimes not. gone maps each
// vanished process to the number of events recorded when it vanished.
func registerHistory(data []byte) (events []history.Event, gone map[int]int) {
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
		open, done, dead bool
		op               spec.Operation
		resp             int
	}
	ps := make([]proc, procs)
	gone = map[int]int{}
	reg, ops, val := 0, 0, 0
	for len(data) > 0 {
		pid := next() % procs
		p := &ps[pid]
		if p.dead {
			continue
		}
		switch b := next(); {
		case !p.open:
			if ops == MaxOps {
				continue
			}
			ops++
			switch b % 3 {
			case 0:
				p.op = spec.NewOp(spec.MethodRead)
			case 1:
				val++
				p.op = spec.NewOp(spec.MethodWrite, val)
			default:
				p.op = spec.NewOp(spec.MethodWrite, 0)
			}
			p.open, p.done = true, false
			events = append(events, history.Event{Kind: history.KindInvoke, PID: pid, Op: p.op})
		case !p.done && b%4 != 0:
			p.done, p.resp = true, reg // the effect
			if p.op.Method == spec.MethodWrite {
				if p.resp = spec.Ack; b%16 != 1 {
					reg = p.op.Args[0]
				}
			}
		case b%8 == 0:
			p.dead = true
			gone[pid] = len(events)
		case b%8 < 3:
			// A crash, then a recovery that tells the truth unless b says so.
			events = append(events, history.Event{Kind: history.KindCrash})
			if fail := !p.done; b%8 == 2 || fail {
				events = append(events, history.Event{Kind: history.KindRecoverReturn, PID: pid, Fail: fail != (b%32 == 2)})
			} else {
				events = append(events, history.Event{Kind: history.KindRecoverReturn, PID: pid, Resp: p.resp})
			}
			p.open = false
		case p.done:
			resp := p.resp
			if b%16 == 3 && p.op.Method == spec.MethodRead {
				resp = b % 3
			}
			events = append(events, history.Event{Kind: history.KindReturn, PID: pid, Resp: resp})
			p.open = false
		}
	}
	return events, gone
}

// sweepEvents runs a history through one Sweep, ending each vanished
// process's open operation with no verdict where it vanished, and
// reports whether no step convicted.
func sweepEvents(events []history.Event, gone map[int]int) bool {
	var s Sweep
	open := map[int]int{}
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
			open[e.PID] = s.Invoke(e.Op.Method == spec.MethodWrite, v)
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
// search: on every history, crashes, failed verdicts and pending
// operations included, both give one verdict.
func FuzzSweepAgainstCheck(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 5, 0, 5})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0, 0, 6, 1, 1, 2, 6, 1, 7, 0, 1, 0, 3, 2, 9})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 0, 0, 2, 0, 1, 0, 8, 0, 2, 0, 19, 0, 4})
	f.Add([]byte("the register fuzz seed with several processes and crashes 0123456789"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, gone := registerHistory(data)
		recs, _, err := Collect(events)
		if err != nil {
			t.Fatal(err)
		}
		want := Check(spec.Register{}, recs)
		if got := sweepEvents(events, gone); got != want {
			t.Fatalf("sweep says linearizable=%v, Check says %v, on\n%v", got, want, events)
		}
	})
}

// BenchmarkSweep reports ns per event (an invocation or a return) on a
// storm-shaped register history: writes of unique values, DELs and reads,
// with up to depth operations in flight, each returning in turn.
func BenchmarkSweep(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run("inflight="+strconv.Itoa(depth), func(b *testing.B) {
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
