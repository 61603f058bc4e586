package linearize

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"detectable/internal/runtime"
)

// Sweep checks one register's history online, in real-time order, one
// invocation or return at a time: Lowe's just-in-time linearization
// ("Testing for linearizability", CCPE 2017) for a register that starts at
// 0, with Check's verdict under spec.Register: an operation reported
// failed or not invoked leaves the history, a write with no verdict is
// optional, any other linearizes inside its interval with its response.
//
// The frontier holds the configurations the history so far admits, in
// families: one history of values, with each in-flight write live (not
// linearized yet), maybe (if linearized, overwritten just before the
// current value was written), held (if linearized, just before a write
// Before orders after it, as a server runs one request's writes; its
// verdict says whether) or linearized. A read carries the values it may
// have returned. A return keeps the families in which its operation can
// linearize, reached by first linearizing other in-flight writes, so
// concurrent writes cost a family per value they may leave current, not
// one per order. An empty frontier is a violation: the check adopts the
// return's claim and goes on. Past maxFamilies families merge, which may
// hide a violation but never invents one; Merges says how often that
// happened, so a check that merged nothing was exact. ReadStale adds the
// one weaker read a replica serves (docs/REPLICATION.md §read replicas).
// The zero value is a register holding 0.
type Sweep struct {
	ops   []sweepOp // by slot: the in-flight operation that owns bit slot
	used  uint64    // slots holding an in-flight operation
	reads uint64    // the subset of used that are reads
	// front holds the families, their seen lists in arena; next and spare
	// are the frontier being built.
	front, next       []family
	arena, spare, tmp []int
	vals              map[int]uint8 // from the first ReadStale on: every nonzero value a write carried
	merges            int           // flips that merged families past maxFamilies
}

type sweepOp struct {
	write      bool
	val        int    // a write's value (0 for a DEL)
	pred, succ uint64 // the in-flight writes ordered before and after it (Before)
}

// family is a set of configurations that share one history of values.
type family struct {
	val         int    // the current value
	live, maybe uint64 // in-flight writes linearized in none, or in some, of its configurations
	held        uint64 // in-flight writes linearized or never; read r may have seen w: pair ((w+1)<<6 | r, w's value)
	crossed     uint64 // in-flight reads invoked before val was written
	lo, hi      int32  // seen: sorted (read slot, value) pairs in arena[lo:hi]
}

// What ReadStale knows of a written value.
const (
	carried  = iota + 1 // invoked, and not reported failed
	failed              // reported failed
	observed            // carried, and returned by a stale read
)

// MaxInFlight is how many operations a Sweep follows in flight at once.
const MaxInFlight = 64

// maxFamilies caps the frontier. Histories with four operations in flight
// stay well below it; the storms' hottest keys pass it now and then.
const maxFamilies = 64

// Invoke opens an operation: a write of val (a DEL writes 0) or a read. It
// returns the operation's handle for Return.
func (s *Sweep) Invoke(write bool, val int) int {
	if s.front == nil {
		s.front = []family{{}}
	}
	op := bits.TrailingZeros64(^s.used)
	if op == MaxInFlight {
		panic("linearize: more than MaxInFlight operations in flight on one register")
	}
	if op == len(s.ops) {
		s.ops = append(s.ops, sweepOp{})
	}
	s.ops[op] = sweepOp{write: write, val: val}
	bit := uint64(1) << op
	s.used |= bit
	if !write {
		s.reads |= bit
		for _, f := range s.front {
			s.emit(f, s.edit(s.seen(f), -1, bit, f.val))
		}
		s.flip()
		return op
	}
	for i := range s.front {
		s.front[i].live |= bit
	}
	if s.vals != nil && val != 0 {
		s.vals[val] = carried
	}
	return op
}

// Before orders write a before write b, as a server runs one request's
// writes: if both linearize, a does first (transitively). Call it right
// after b's Invoke, before any other event; the verdicts may come in any order.
func (s *Sweep) Before(a, b int) {
	s.ops[b].pred |= s.ops[a].pred | 1<<a
	for ws := s.ops[b].pred; ws != 0; ws &= ws - 1 {
		s.ops[bits.TrailingZeros64(ws)].succ |= 1 << b
	}
}

// Return closes op with its outcome: linearized (a read with out.Resp),
// failed or not invoked (no effect), or no verdict (a write stays in
// flight for good, a read leaves). It returns "" or why the history is no
// longer linearizable.
func (s *Sweep) Return(op int, out runtime.Outcome[int]) (why string) {
	o, bit, lin := s.ops[op], uint64(1)<<op, out.Status.Linearized()
	noEffect := out.Status == runtime.StatusFailed || out.Status == runtime.StatusNotInvoked
	if o.write && !lin && !noEffect {
		return "" // no verdict: in flight for good
	}
	defer func() { s.used &^= bit; s.reads &^= bit }()
	for ws := o.pred | o.succ; ws != 0; ws &= ws - 1 { // unlink op; o keeps its masks
		w := &s.ops[bits.TrailingZeros64(ws)]
		w.pred, w.succ = w.pred&^bit, w.succ&^bit
	}
	if f := &s.front[0]; len(s.front) == 1 && lin && s.reads&^bit == 0 {
		// One family and no other read in flight: a live write becomes
		// current (see change), and one linearized already, or a read of
		// the current value, changes nothing else.
		switch open := (f.live | f.maybe) &^ bit; {
		case o.write && f.live&bit != 0:
			*f = family{val: o.val, live: open & o.succ, maybe: open &^ o.succ &^ o.pred, held: f.held | open&o.pred}
			return ""
		case o.write && (f.live|f.maybe)&bit == 0:
			f.held &^= bit
			return ""
		case !o.write && f.val == out.Resp:
			f.crossed, f.hi = 0, f.lo
			return ""
		}
	}
	switch {
	case o.write && lin:
		for _, f := range s.front {
			switch {
			case f.live&bit != 0:
				s.change(f, bit, o.val, -1)
			case f.maybe&bit != 0:
				s.change(f, bit, o.val, -1)
				f.maybe &^= bit // or it was overwritten already
				s.settle(f, s.edit(s.seen(f), -1, f.crossed, o.val), o.pred&f.maybe, f.crossed)
			case f.held&bit != 0:
				f.held &^= bit
				s.emit(f, firm(s.seen(f), op, true))
			default:
				s.emit(f, s.seen(f))
			}
		}
	case o.write:
		if s.vals != nil && o.val != 0 {
			if s.vals[o.val] == observed {
				why = "its verdict says not linearized, but a read already returned its value"
			}
			s.vals[o.val] = failed
		}
		for _, f := range s.front {
			if (f.live|f.maybe|f.held)&bit != 0 || why != "" {
				f.live, f.maybe, f.held = f.live&^bit, f.maybe&^bit, f.held&^bit
				s.emit(f, firm(s.seen(f), op, false))
			}
		}
		if len(s.next) == 0 {
			why = "its verdict says not linearized, but a read already observed its effect"
			s.next, s.spare = append(s.next, s.front...), append(s.spare, s.arena...)
		}
	case lin:
		why = s.read(op, out.Resp)
	default:
		for _, f := range s.front { // a read without effect leaves
			f.crossed &^= bit
			s.emit(f, s.edit(s.seen(f), op, 0, 0))
		}
	}
	s.flip()
	return why
}

// read keeps the families in which read op can return resp: resp was
// current during its interval, or is the value of a maybe write (which
// must then have been overwritten after op was invoked), or of a write
// that linearizes now. When none can, it says what the register holds
// and adopts resp as its value.
func (s *Sweep) read(op, resp int) (why string) {
	bit := uint64(1) << op
	for _, f := range s.front {
		seen, g := s.seen(f), f
		g.crossed &^= bit
		if hasPair(seen, op, resp) {
			s.emit(g, s.edit(seen, op, 0, 0))
		} else {
			for ws := f.held; ws != 0; ws &= ws - 1 {
				if w := bits.TrailingZeros64(ws); hasPair(seen, (w+1)<<6|op, resp) {
					h := g // a held write op may have seen linearized
					h.held &^= 1 << w
					s.emit(h, s.edit(firm(seen, w, true), op, 0, 0))
				}
			}
			for ws := f.maybe; ws != 0 && f.crossed&bit != 0; ws &= ws - 1 {
				if y := bits.TrailingZeros64(ws); s.ops[y].val == resp {
					h := g // a maybe write overwritten after op was invoked
					h.maybe &^= 1 << y
					s.settle(h, s.edit(seen, op, g.crossed, resp), s.ops[y].pred&h.maybe, g.crossed)
				}
			}
		}
		for ws := f.live | f.maybe; ws != 0; ws &= ws - 1 {
			if w := bits.TrailingZeros64(ws); s.ops[w].val == resp {
				s.change(f, 1<<w, resp, op)
			}
		}
	}
	if len(s.next) > 0 {
		return ""
	}
	var want []int
	for _, f := range s.front {
		if !slices.Contains(want, f.val) {
			want = append(want, f.val)
		}
		seen := s.seen(f)
		f.val, f.crossed = resp, s.reads&^bit
		s.emit(f, s.edit(seen, op, f.crossed, resp))
	}
	return "want " + strings.ReplaceAll(strings.Trim(fmt.Sprint(want), "[]"), " ", " or ")
}

// ReadStale checks a read served from a bounded-stale view, which may
// return any value the register held, however old: zero never convicts,
// a value no write carried or whose write failed does, and a value it
// returns may not be reported failed later. It knows the values of the
// writes invoked since the register's first ReadStale, so a caller with
// stale readers calls ReadStale(0), which never convicts, before the
// first write.
func (s *Sweep) ReadStale(v int) (why string) {
	if s.vals == nil {
		s.vals = make(map[int]uint8)
	}
	switch s.vals[v] {
	case 0:
		if v != 0 {
			return "no write of this key carried it"
		}
	case failed:
		return "its write's verdict was not linearized"
	default:
		s.vals[v] = observed
	}
	return ""
}

// change emits f after linearizing write x (a bit) of value val now:
// every other live write may be overwritten first, but those ordered after
// x stay live and those ordered before it are held; every in-flight read
// but gone has seen val. No write ordered after a live or maybe one has
// linearized: it held that one when it did.
func (s *Sweep) change(f family, x uint64, val, gone int) {
	o := &s.ops[bits.TrailingZeros64(x)]
	rs := s.reads
	if gone >= 0 {
		rs &^= 1 << gone
	}
	open := (f.live | f.maybe) &^ x
	g := family{val: val, live: open & o.succ, maybe: open &^ o.succ, held: f.held, crossed: rs}
	seen := s.edit(s.seen(f), gone, rs, val)
	if o.pred&open != 0 { // settle, without its call in the common case
		g, seen = s.hold(g, seen, o.pred&open, rs)
	}
	s.emit(g, seen)
}

// settle emits g with the writes in ws, ordered before one that has just
// linearized, held: each linearized just before it, where the reads in rs
// may have seen it, or never, as its verdict will say.
func (s *Sweep) settle(g family, seen []int, ws, rs uint64) {
	if ws != 0 {
		g, seen = s.hold(g, seen, ws, rs)
	}
	s.emit(g, seen)
}

func (s *Sweep) hold(g family, seen []int, ws, rs uint64) (family, []int) {
	g.live, g.maybe, g.held = g.live&^ws, g.maybe&^ws, g.held|ws
	var maySee []int
	for ; ws != 0 && rs != 0; ws &= ws - 1 {
		w := bits.TrailingZeros64(ws)
		for r := rs; r != 0; r &= r - 1 {
			maySee = append(maySee, (w+1)<<6|bits.TrailingZeros64(r), s.ops[w].val)
		}
	}
	return g, union(seen, maySee)
}

// firm returns seen with the pairs of held write w's readers made those of
// a linearized write, or dropped.
func firm(seen []int, w int, lin bool) (keep []int) {
	var made []int
	for i := 0; i < len(seen); i += 2 {
		if seen[i]>>6 != w+1 {
			keep = append(keep, seen[i], seen[i+1])
		} else if lin {
			made = append(made, seen[i]&63, seen[i+1])
		}
	}
	return union(keep, made)
}

func (s *Sweep) seen(f family) []int { return s.arena[f.lo:f.hi] }

// emit adds f, with seen as its seen list, to next, keeping only families
// no other one admits more than: with the same value and writes, a family
// whose reads crossed more and have seen more accepts every future the
// other does.
func (s *Sweep) emit(f family, seen []int) {
	for i := 0; i < len(s.next); i++ {
		g := &s.next[i]
		if g.val != f.val || g.live != f.live || g.maybe != f.maybe || g.held != f.held {
			continue
		}
		had := s.spare[g.lo:g.hi]
		if g.crossed&f.crossed == f.crossed && len(seen) <= len(had) && subset(seen, had) {
			return
		}
		if g.crossed&f.crossed == g.crossed && len(had) <= len(seen) && subset(had, seen) {
			s.next = slices.Delete(s.next, i, i+1)
			i--
		}
	}
	f.lo = int32(len(s.spare))
	s.spare = append(s.spare, seen...)
	f.hi = int32(len(s.spare))
	s.next = append(s.next, f)
}

// flip makes the families emitted since the last flip the frontier. Past
// maxFamilies it merges the families of each value into one that admits
// every configuration and every read result any of them did.
func (s *Sweep) flip() {
	s.front, s.next = s.next, s.front[:0]
	s.arena, s.spare = s.spare, s.arena[:0]
	if len(s.front) <= maxFamilies {
		return
	}
	s.merges++
	for i, f := range s.front {
		if slices.ContainsFunc(s.front[:i], func(g family) bool { return g.val == f.val }) {
			continue
		}
		seen, held := slices.Clone(s.seen(f)), f.held
		for _, g := range s.front[i+1:] {
			if g.val == f.val {
				all := f.live | f.maybe | f.held | g.live | g.maybe | g.held
				f.live, f.held, held = f.live&g.live, f.held&g.held, held|g.held
				f.maybe, f.crossed = all&^f.live&^f.held, f.crossed|g.crossed
				seen = union(seen, s.seen(g))
			}
		}
		for ws := held &^ f.held; ws != 0; ws &= ws - 1 {
			seen = firm(seen, bits.TrailingZeros64(ws), true)
		}
		s.emit(f, seen)
	}
	s.front, s.next = s.next, s.front[:0]
	s.arena, s.spare = s.spare, s.arena[:0]
}

// Merges returns how many times the frontier passed maxFamilies and its
// families merged: 0 means every verdict so far was exact.
func (s *Sweep) Merges() int { return s.merges }

// edit returns seen without read gone's pairs and with (r, val) for every
// read r in add, built in tmp. Pair lists are kept sorted.
func (s *Sweep) edit(seen []int, gone int, add uint64, val int) []int {
	out := s.tmp[:0]
	for i := 0; i < len(seen) || add != 0; {
		r := bits.TrailingZeros64(add) // 64 once add is empty, below held writes' readers' keys
		if i < len(seen) && (seen[i] < r || add == 0) {
			r = seen[i]
		}
		in := add&(1<<r) != 0
		for ; i < len(seen) && seen[i] == r; i += 2 {
			if in && seen[i+1] >= val {
				if seen[i+1] > val {
					out = append(out, r, val)
				}
				in = false
			}
			if r&63 != gone {
				out = append(out, r, seen[i+1])
			}
		}
		if in {
			out = append(out, r, val)
		}
		add &^= 1 << r
	}
	s.tmp = out
	return out
}

// hasPair reports whether the pair list seen holds (r, v).
func hasPair(seen []int, r, v int) bool {
	for i := 0; i < len(seen); i += 2 {
		if seen[i] == r && seen[i+1] == v {
			return true
		}
	}
	return false
}

// subset reports whether every pair of a is in b.
func subset(a, b []int) bool {
	for ; len(a) > 0; a = a[2:] {
		for len(b) > 0 && pairLess(b, a) {
			b = b[2:]
		}
		if len(b) == 0 || b[0] != a[0] || b[1] != a[1] {
			return false
		}
	}
	return true
}

// union returns the pairs of a and of b.
func union(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && pairLess(a, b):
			out, a = append(out, a[0], a[1]), a[2:]
		case len(a) == 0 || pairLess(b, a):
			out, b = append(out, b[0], b[1]), b[2:]
		default:
			out, a, b = append(out, a[0], a[1]), a[2:], b[2:]
		}
	}
	return out
}

func pairLess(a, b []int) bool { return a[0] < b[0] || a[0] == b[0] && a[1] < b[1] }
