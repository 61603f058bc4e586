package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"detectable/internal/linearize"
	"detectable/internal/runtime"
)

// trailLen is how many of a key's most recent operations a violation prints.
const trailLen = 8

// violationLog is a run's verifier. Every key is a register checked online
// by its own linearize.Sweep, fed each operation's invocation before the
// request is sent and its verdict after the reply arrives (linearizability
// is local, so keys are checked apart). A violation is counted and
// explained on stderr as it is found: the key, the operation and what the
// check could have accepted, and the key's last trailLen operations by any
// worker — so a failed storm says which operation lied instead of only how
// many did.
type violationLog struct {
	n          atomic.Uint64
	indefinite atomic.Uint64 // operations whose verdict was not definite
	w          io.Writer     // os.Stderr
	names      []string
	keys       []keyLog
}

// keyLog is one key's check and its ring of settled operations, oldest
// overwritten, under one lock.
type keyLog struct {
	mu  sync.Mutex
	reg linearize.Sweep
	ops [trailLen]opRecord
	n   int
}

type opRecord struct {
	worker int    // -1: the final sweep
	op     string // GET, PUT, DEL
	val    int    // the value written (PUT)
	out    runtime.Outcome[int]
}

func (r opRecord) String() string {
	s := fmt.Sprintf("w%d %s", r.worker, r.op)
	if r.worker < 0 {
		s = "final sweep " + r.op
	}
	if r.op == "PUT" {
		s += fmt.Sprintf(" %d", r.val)
	}
	s += fmt.Sprintf(" → %s", r.out.Status)
	if r.op == "GET" && r.out.Status.Linearized() {
		s += fmt.Sprintf(" %d", r.out.Resp)
	}
	return fmt.Sprintf("%s (crashes %d)", s, r.out.Crashes)
}

// pending is an operation invoked on key k and not yet settled.
type pending struct{ k, op int }

func newViolationLog(names []string) *violationLog {
	return &violationLog{w: os.Stderr, names: names, keys: make([]keyLog, len(names))}
}

// Load returns the number of violations so far.
func (l *violationLog) Load() uint64 { return l.n.Load() }

// definite reports whether a verdict says for certain if the operation
// linearized — the paper's contract for every crashed operation.
func definite(s runtime.Status) bool {
	return s.Linearized() || s == runtime.StatusFailed || s == runtime.StatusNotInvoked
}

// begin invokes a write of val (a DEL writes 0) or a read on key k, after
// the writes of k among earlier, its request's entries the server runs first.
func (l *violationLog) begin(k int, write bool, val int, earlier ...pending) pending {
	kl := &l.keys[k]
	kl.mu.Lock()
	defer kl.mu.Unlock()
	p := pending{k, kl.reg.Invoke(write, val)}
	for _, e := range earlier {
		if e.k == k {
			kl.reg.Before(e.op, p.op)
		}
	}
	return p
}

// settle feeds p's outcome to its key's check and appends it to the key's
// trail.
func (l *violationLog) settle(p pending, r opRecord) {
	if !definite(r.out.Status) {
		l.indefinite.Add(1)
	}
	kl := &l.keys[p.k]
	kl.mu.Lock()
	defer kl.mu.Unlock()
	kl.ops[kl.n%trailLen] = r
	kl.n++
	if why := kl.reg.Return(p.op, r.out); why != "" {
		l.convict(p.k, "%s: %s", r, why)
	}
}

// armStale readies every key's check for reads from a bounded-stale view,
// before the first write: from here on each records its writes' values.
func (l *violationLog) armStale() {
	for i := range l.keys {
		l.keys[i].reg.ReadStale(0)
	}
}

// stale checks reader rid's read of key k served from a replica's
// bounded-stale view.
func (l *violationLog) stale(k, resp, rid int, onReplica bool) {
	kl := &l.keys[k]
	kl.mu.Lock()
	defer kl.mu.Unlock()
	if why := kl.reg.ReadStale(resp); why != "" {
		l.convict(k, "GET by reader %d (on a replica: %v) got %d: %s", rid, onReplica, resp, why)
	}
}

// convict counts one violation on key k and prints it with the key's
// trail. The caller holds the key's lock.
func (l *violationLog) convict(k int, format string, args ...any) {
	l.n.Add(1)
	t := &l.keys[k]
	var b strings.Builder
	fmt.Fprintf(&b, "violation: %s: %s\n  last %d of %d operations on %s, oldest first:\n",
		l.names[k], fmt.Sprintf(format, args...), min(t.n, trailLen), t.n, l.names[k])
	for i := max(0, t.n-trailLen); i < t.n; i++ {
		fmt.Fprintf(&b, "    %s\n", t.ops[i%trailLen])
	}
	io.WriteString(l.w, b.String()) //nolint:errcheck
}

// finalSweep reads every key once through its check after all verdicts
// have settled; get reads a key with retries.
func finalSweep(log *violationLog, get func(key string) (int, error)) error {
	for k, key := range log.names {
		p := log.begin(k, false, 0)
		got, err := get(key)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		log.settle(p, opRecord{worker: -1, op: "GET", out: runtime.Outcome[int]{Status: runtime.StatusOK, Resp: got}})
	}
	return nil
}
