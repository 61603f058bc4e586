// Package history records concurrent executions — invocations, responses,
// system-wide crashes and recovery verdicts — for offline checking against
// durable linearizability and detectability.
//
// The recorded order of events is a valid real-time order: an event is
// appended while the operation holds no pending effect that could reorder
// with it (invocations are logged before the first primitive of the body;
// responses after the last).
//
// A Log runs in one of three modes (Mode), chosen at allocation:
//
//   - ModeFull (the zero value): an unbounded, mutex-guarded slice. Every
//     event is retained, so the durable-linearizability and detectability
//     checkers can replay complete executions. Verification tests use this.
//   - ModeRing: a fixed-capacity ring of one or more power-of-two
//     sub-rings (stripes). Appends reserve a slot with one atomic ticket
//     increment on their stripe and synchronize only with appends that
//     collide on the same slot (a wrap-around later), so the log adds no
//     global serialization to the operation hot path. With a single stripe
//     (NewRing) the ticket is shared and the reconstructed order is the
//     real-time append order; NewShardedRing stripes the ticket by pid so
//     a hot shard's processes stop contending on one counter — trading
//     cross-stripe real-time order for a deterministic per-writer-ordered
//     interleaving (see Events). No served path keeps a ring; the
//     benchmark ladder still times one. A slot is 40 pointer-free bytes
//     (lock, sequence number, one word of bit fields, two payload words):
//     the ring owns no heap beyond its slots, the collector never scans
//     them, and Event values exist only in the snapshot Events builds. The
//     price is arity: a ring records Invokes of at most two arguments.
//   - ModeOff: events are discarded without a trace — an append returns
//     before it writes anything, so Appended, Dropped and Len read 0.
//     Served stores (internal/shardkv) and benchmark floors use this.
package history

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"detectable/internal/spec"
)

// Kind discriminates event types.
type Kind int

// Event kinds.
const (
	// KindInvoke marks the start of an operation attempt.
	KindInvoke Kind = iota + 1
	// KindReturn marks a normal (crash-free) completion.
	KindReturn
	// KindCrash marks a system-wide crash-failure.
	KindCrash
	// KindRecoverReturn marks the completion of a recovery function: either
	// the recovered response (the operation was linearized) or fail.
	KindRecoverReturn
)

// Mode selects a Log's retention strategy.
type Mode int

// Log modes.
const (
	// ModeFull retains every event (unbounded, mutex-guarded).
	ModeFull Mode = iota
	// ModeRing retains the most recent events in a fixed ring.
	ModeRing
	// ModeOff retains nothing.
	ModeOff
)

// String returns a short name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeRing:
		return "ring"
	case ModeOff:
		return "off"
	default:
		return "unknown"
	}
}

// Event is one record in a Log.
type Event struct {
	Kind Kind
	// PID is the process the event belongs to (unused for KindCrash).
	PID int
	// Op is the abstract operation being invoked (KindInvoke only).
	Op spec.Operation
	// Resp is the response value (KindReturn, and KindRecoverReturn when
	// Fail is false).
	Resp int
	// Fail reports that a recovery function returned the distinguished
	// fail value, i.e. the crashed operation was not linearized.
	Fail bool
}

// String renders the event for diagnostics.
func (e Event) String() string {
	switch e.Kind {
	case KindInvoke:
		return fmt.Sprintf("p%d.invoke %s", e.PID, e.Op)
	case KindReturn:
		return fmt.Sprintf("p%d.return %d", e.PID, e.Resp)
	case KindCrash:
		return "CRASH"
	case KindRecoverReturn:
		if e.Fail {
			return fmt.Sprintf("p%d.recover fail", e.PID)
		}
		return fmt.Sprintf("p%d.recover %d", e.PID, e.Resp)
	default:
		return "unknown"
	}
}

// record is one ring event packed into four pointer-free words, so a ring's
// slots are a noscan span the collector never walks and an append never
// touches the heap. seq is the event's global sequence number (0 while
// empty), meta the bit fields below, and w an Invoke's (at most two)
// arguments or a Return's / RecoverReturn's response.
type record struct {
	seq  uint64
	meta uint64
	w    [maxRingArgs]int64
}

// maxRingArgs is how many arguments a ring record holds; metaArgcBits must
// be able to count them.
const maxRingArgs = 2

// Bit fields of record.meta, low to high. The method is an index into the
// log's interned method table (KindInvoke only); a pid is a process index
// and must fit 32 bits.
const (
	metaKindBits   = 3
	metaFailBits   = 1
	metaArgcBits   = 2
	metaMethodBits = 16
	metaPIDBits    = 32

	metaKindShift   = 0
	metaFailShift   = metaKindShift + metaKindBits
	metaArgcShift   = metaFailShift + metaFailBits
	metaMethodShift = metaArgcShift + metaArgcBits
	metaPIDShift    = metaMethodShift + metaMethodBits
)

// slot is one ring entry: a record guarded by the slot's own mutex, so an
// append contends only with a reader or with the rare append that wrapped
// around onto the same slot.
type slot struct {
	mu sync.Mutex
	record
}

// stripe is one sub-ring: a private ticket plus its slots. The ticket sits
// on its own cache-line pair so hot stripes never false-share counters.
type stripe struct {
	ticket atomic.Uint64
	_      [120]byte
	slots  []slot
	mask   uint64
}

// Log is an append-only, concurrency-safe event log. The zero value is a
// ModeFull log, ready to use.
type Log struct {
	mode Mode

	// ModeFull state.
	mu     sync.Mutex
	events []Event

	// ModeRing state: one or more sub-rings. An append picks its stripe by
	// the event's PID, takes one ticket there, and derives a globally
	// unique sequence number seq = (ticket-1)*len(stripes) + stripeIdx + 1.
	// Per-stripe tickets increase, so seq is monotone within a stripe (and
	// therefore per pid); Events merges stripes by seq.
	stripes []stripe

	// methods interns the method names of ring records: a copy-on-write
	// table the append path scans without a lock (a program has a handful
	// of methods), extended under methodsMu on first sight of a name.
	methods   atomic.Pointer[[]string]
	methodsMu sync.Mutex
}

// MaxRingStripes bounds the stripe count of a sharded ring; beyond the
// point where every concurrently appending process has its own ticket,
// more stripes only shrink each sub-ring.
const MaxRingStripes = 16

// NewRing returns a single-stripe ModeRing log retaining the most recent
// capacity events (rounded up to a power of two, minimum 64). Its
// reconstructed order is the exact global append order.
func NewRing(capacity int) *Log { return NewShardedRing(capacity, 1) }

// NewShardedRing returns a ModeRing log of stripes sub-rings (clamped to
// [1, MaxRingStripes] and rounded up to a power of two), splitting
// capacity across them (each sub-ring at least 64 slots, rounded up to a
// power of two). Appends stripe by pid: processes hashing to different
// stripes share no ticket and no slots, so the log stops serializing a
// hot shard. Cross-stripe order in Events is the deterministic seq
// interleaving, not real-time order; per-stripe (hence per-process) order
// is exact.
func NewShardedRing(capacity, stripes int) *Log {
	k := 1
	for k < stripes && k < MaxRingStripes {
		k <<= 1
	}
	per := capacity / k
	n := 64
	for n < per {
		n <<= 1
	}
	l := &Log{mode: ModeRing, stripes: make([]stripe, k)}
	l.methods.Store(new([]string))
	for i := range l.stripes {
		l.stripes[i].slots = make([]slot, n)
		l.stripes[i].mask = uint64(n - 1)
	}
	return l
}

// NewOff returns a ModeOff log that discards every event.
func NewOff() *Log { return &Log{mode: ModeOff} }

// Mode returns the log's retention mode.
func (l *Log) Mode() Mode { return l.mode }

// Capacity returns the total ring capacity across stripes (0 for full and
// off modes).
func (l *Log) Capacity() int {
	n := 0
	for i := range l.stripes {
		n += len(l.stripes[i].slots)
	}
	return n
}

// Stripes returns the number of sub-rings (0 for full and off modes).
func (l *Log) Stripes() int { return len(l.stripes) }

// Invoke records the start of op by pid. op.Args is copied: the caller may
// reuse its backing array after Invoke returns (object implementations
// keep per-process argument buffers to make their hot paths
// allocation-free). A ring log panics on more than two arguments.
func (l *Log) Invoke(pid int, op spec.Operation) {
	l.append(&Event{Kind: KindInvoke, PID: pid, Op: op})
}

// Return records a crash-free completion with response resp by pid.
func (l *Log) Return(pid, resp int) {
	l.append(&Event{Kind: KindReturn, PID: pid, Resp: resp})
}

// Crash records a system-wide crash-failure.
func (l *Log) Crash() {
	l.append(&Event{Kind: KindCrash})
}

// RecoverReturn records the completion of pid's recovery function. fail
// reports the distinguished fail verdict; otherwise resp is the recovered
// response of the linearized operation.
func (l *Log) RecoverReturn(pid, resp int, fail bool) {
	l.append(&Event{Kind: KindRecoverReturn, PID: pid, Resp: resp, Fail: fail})
}

// Events returns a snapshot copy of the retained events in recording
// order. In ring mode the order is reconstructed from sequence numbers
// (older overwritten events are absent; see Appended/Dropped): exact
// append order with one stripe, and the deterministic per-stripe-ordered
// merge with several — every process's own events stay in order, but
// cross-stripe interleaving is by sequence number, not wall clock.
func (l *Log) Events() []Event {
	switch l.mode {
	case ModeOff:
		return nil
	case ModeRing:
		return l.ringSnapshot()
	default:
		l.mu.Lock()
		defer l.mu.Unlock()
		out := make([]Event, len(l.events))
		copy(out, l.events)
		return out
	}
}

// Appended returns the total number of events ever appended, including
// events a ring has since overwritten. An off log counts nothing: 0.
func (l *Log) Appended() uint64 {
	switch l.mode {
	case ModeRing:
		var t uint64
		for i := range l.stripes {
			t += l.stripes[i].ticket.Load()
		}
		return t
	default:
		l.mu.Lock()
		defer l.mu.Unlock()
		return uint64(len(l.events))
	}
}

// Dropped returns how many appended events a ring has overwritten (0 for
// full and off logs).
func (l *Log) Dropped() uint64 {
	var d uint64
	for i := range l.stripes {
		st := &l.stripes[i]
		if t := st.ticket.Load(); t > uint64(len(st.slots)) {
			d += t - uint64(len(st.slots))
		}
	}
	return d
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	switch l.mode {
	case ModeOff:
		return 0
	case ModeRing:
		n := 0
		for i := range l.stripes {
			st := &l.stripes[i]
			if t := st.ticket.Load(); t < uint64(len(st.slots)) {
				n += int(t)
			} else {
				n += len(st.slots)
			}
		}
		return n
	default:
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.events)
	}
}

// String renders the retained log, one event per line, without the extra
// snapshot copy Events would make.
func (l *Log) String() string {
	var b strings.Builder
	render := func(evs []Event) {
		for i, e := range evs {
			fmt.Fprintf(&b, "%3d %s\n", i, e)
		}
	}
	switch l.mode {
	case ModeOff:
	case ModeRing:
		render(l.ringSnapshot())
	default:
		l.mu.Lock()
		defer l.mu.Unlock()
		render(l.events)
	}
	return b.String()
}

// append takes the event by pointer so the inlined recorders build it once,
// in their caller's frame, instead of copying 72 bytes per call.
func (l *Log) append(e *Event) {
	switch l.mode {
	case ModeOff:
		// Nothing is written, not even a counter: a hot shard's processes
		// share no cache line through their log.
		return
	case ModeRing:
		// Pack first: the caller's argument slice is read, never retained
		// (it may alias a per-process scratch the caller overwrites on its
		// next operation), and only three words are copied under the lock.
		meta := uint64(e.Kind)<<metaKindShift | uint64(uint32(e.PID))<<metaPIDShift
		if e.Fail {
			meta |= 1 << metaFailShift
		}
		w := [maxRingArgs]int64{int64(e.Resp)} // an Invoke has no response: its arguments go here
		if e.Kind == KindInvoke {
			args := e.Op.Args
			if len(args) > maxRingArgs {
				panic(fmt.Sprintf("history: ring log holds at most %d arguments, %s has %d (use ModeFull)",
					maxRingArgs, e.Op.Method, len(args)))
			}
			meta |= uint64(len(args))<<metaArgcShift | l.intern(e.Op.Method)<<metaMethodShift
			for i, a := range args {
				w[i] = int64(a)
			}
		}
		k := uint64(len(l.stripes))
		idx := uint64(uint(e.PID)) & (k - 1)
		st := &l.stripes[idx]
		t := st.ticket.Add(1)
		s := &st.slots[(t-1)&st.mask]
		s.mu.Lock()
		s.record = record{seq: (t-1)*k + idx + 1, meta: meta, w: w}
		s.mu.Unlock()
	default:
		if len(e.Op.Args) > 0 {
			e.Op.Args = append([]int(nil), e.Op.Args...)
		}
		l.mu.Lock()
		l.events = append(l.events, *e)
		l.mu.Unlock()
	}
}

// unpack rebuilds the event r encodes; an Invoke gets a fresh Args slice
// and its method name from methods.
func (r record) unpack(methods []string) Event {
	field := func(shift, bits uint) uint64 { return r.meta >> shift & (1<<bits - 1) }
	e := Event{
		Kind: Kind(field(metaKindShift, metaKindBits)),
		PID:  int(int32(field(metaPIDShift, metaPIDBits))),
		Fail: field(metaFailShift, metaFailBits) != 0,
	}
	if e.Kind != KindInvoke {
		e.Resp = int(r.w[0])
		return e
	}
	e.Op.Method = methods[field(metaMethodShift, metaMethodBits)]
	if argc := field(metaArgcShift, metaArgcBits); argc > 0 {
		e.Op.Args = make([]int, argc)
		for i := range e.Op.Args {
			e.Op.Args[i] = int(r.w[i])
		}
	}
	return e
}

// intern returns method's index in the log's method table, adding it on
// first sight. The hit path is one atomic load and a scan; the table is
// copy-on-write so a scan never sees a slice being grown.
func (l *Log) intern(method string) uint64 {
	if i := slices.Index(*l.methods.Load(), method); i >= 0 {
		return uint64(i)
	}
	l.methodsMu.Lock()
	defer l.methodsMu.Unlock()
	old := *l.methods.Load()
	if i := slices.Index(old, method); i >= 0 {
		return uint64(i)
	}
	if len(old) == 1<<metaMethodBits {
		panic(fmt.Sprintf("history: ring log cannot intern more than %d method names", len(old)))
	}
	grown := append(old[:len(old):len(old)], method)
	l.methods.Store(&grown)
	return uint64(len(old))
}

// ringSnapshot collects the filled slots of every stripe, orders them by
// sequence number and unpacks them. Appends racing the snapshot may leave
// holes (a reserved ticket whose slot write has not landed); the snapshot
// simply omits them.
func (l *Log) ringSnapshot() []Event {
	n := l.Len()
	if n == 0 {
		return nil
	}
	recs := make([]record, 0, n)
	for i := range l.stripes {
		st := &l.stripes[i]
		for j := range st.slots {
			s := &st.slots[j]
			s.mu.Lock()
			if s.seq != 0 {
				recs = append(recs, s.record)
			}
			s.mu.Unlock()
		}
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].seq < recs[b].seq })
	// Loaded after the slots were read: every method index a collected
	// record holds was interned before its slot was written.
	methods := *l.methods.Load()
	out := make([]Event, len(recs))
	for i, r := range recs {
		out[i] = r.unpack(methods)
	}
	return out
}
