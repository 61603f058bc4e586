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
//   - ModeRing: the most recent events in a fixed-capacity ring, under the
//     same mutex as ModeFull, in exact append order. Slots are
//     preallocated and hold an Invoke's arguments inline, so an append
//     allocates nothing; the price is arity: a ring records Invokes of at
//     most two arguments. No served path keeps a ring; the benchmark ladder
//     still times one.
//   - ModeOff: events are discarded without a trace — an append returns
//     before it writes anything, so Appended, Dropped and Len read 0.
//     Served stores (internal/shardkv) and benchmark floors use this.
package history

import (
	"fmt"
	"slices"
	"strings"
	"sync"

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

// record is one ring event: the Event with its Op.Args left nil and an
// Invoke's arguments held inline, so an append copies them without
// allocating and never keeps the caller's slice.
type record struct {
	Event
	argc int
	args [maxRingArgs]int
}

// maxRingArgs is how many arguments a ring record holds.
const maxRingArgs = 2

// Log is an append-only, concurrency-safe event log. The zero value is a
// ModeFull log, ready to use.
type Log struct {
	mode Mode

	mu sync.Mutex
	// events is ModeFull's log.
	events []Event
	// ring and appended are ModeRing's: event n (counting from 0) is held
	// in ring[n & (len(ring)-1)] until event n + len(ring) overwrites it.
	ring     []record
	appended uint64
}

// NewRing returns a ModeRing log retaining the most recent capacity events
// (rounded up to a power of two, minimum 64), in append order.
func NewRing(capacity int) *Log {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &Log{mode: ModeRing, ring: make([]record, n)}
}

// NewShardedRing returns NewRing(capacity) and ignores stripes. A ring has
// one order and one lock; it remains because the benchmark module calls it.
func NewShardedRing(capacity, stripes int) *Log { return NewRing(capacity) }

// NewOff returns a ModeOff log that discards every event.
func NewOff() *Log { return &Log{mode: ModeOff} }

// Mode returns the log's retention mode.
func (l *Log) Mode() Mode { return l.mode }

// Capacity returns the ring's capacity (0 for full and off modes).
func (l *Log) Capacity() int { return len(l.ring) }

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

// Events returns a snapshot copy of the retained events in append order.
// A ring holds only the most recent events (see Appended/Dropped).
func (l *Log) Events() []Event {
	if l.mode == ModeOff {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mode == ModeFull {
		out := make([]Event, len(l.events))
		copy(out, l.events)
		return out
	}
	n := min(l.appended, uint64(len(l.ring)))
	out := make([]Event, n)
	for i := range out {
		r := &l.ring[(l.appended-n+uint64(i))&uint64(len(l.ring)-1)]
		out[i] = r.Event
		if r.argc > 0 {
			out[i].Op.Args = slices.Clone(r.args[:r.argc])
		}
	}
	return out
}

// Appended returns the total number of events ever appended, including
// events a ring has since overwritten. An off log counts nothing: 0.
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mode == ModeRing {
		return l.appended
	}
	return uint64(len(l.events))
}

// Dropped returns how many appended events a ring has overwritten (0 for
// full and off logs).
func (l *Log) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended - min(l.appended, uint64(len(l.ring)))
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mode == ModeRing {
		return int(min(l.appended, uint64(len(l.ring))))
	}
	return len(l.events)
}

// String renders the retained log, one event per line.
func (l *Log) String() string {
	var b strings.Builder
	for i, e := range l.Events() {
		fmt.Fprintf(&b, "%3d %s\n", i, e)
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
		if len(e.Op.Args) > maxRingArgs {
			panic(fmt.Sprintf("history: ring log holds at most %d arguments, %s has %d (use ModeFull)",
				maxRingArgs, e.Op.Method, len(e.Op.Args)))
		}
		r := record{Event: *e}
		r.Op.Args = nil
		r.argc = copy(r.args[:], e.Op.Args)
		l.mu.Lock()
		l.ring[l.appended&uint64(len(l.ring)-1)] = r
		l.appended++
		l.mu.Unlock()
	default:
		if len(e.Op.Args) > 0 {
			e.Op.Args = append([]int(nil), e.Op.Args...)
		}
		l.mu.Lock()
		l.events = append(l.events, *e)
		l.mu.Unlock()
	}
}
