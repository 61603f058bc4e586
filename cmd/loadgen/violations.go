package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"detectable/internal/runtime"
)

// trailLen is how many of a key's most recent operations a violation prints.
const trailLen = 8

// violationLog counts a run's detectability violations and explains each
// one on stderr as it is found: the key, what was read or claimed against
// what the verifier could accept, the convicting operation's verdict and
// crash count, and the key's last trailLen operations by any worker — so a
// failed storm says which operation lied instead of only how many did.
type violationLog struct {
	n      atomic.Uint64
	w      io.Writer // os.Stderr
	names  []string
	trails []keyTrail
}

// keyTrail is one key's ring of settled operations, oldest overwritten.
type keyTrail struct {
	mu  sync.Mutex
	ops [trailLen]opRecord
	n   int
}

type opRecord struct {
	worker int
	op     string // GET, PUT, DEL
	val    int    // the value written (PUT)
	out    runtime.Outcome[int]
}

func (r opRecord) String() string {
	s := fmt.Sprintf("w%d %s", r.worker, r.op)
	if r.op == "PUT" {
		s += fmt.Sprintf(" %d", r.val)
	}
	s += fmt.Sprintf(" → %s", r.out.Status)
	if r.op == "GET" && r.out.Status.Linearized() {
		s += fmt.Sprintf(" %d", r.out.Resp)
	}
	return fmt.Sprintf("%s (crashes %d)", s, r.out.Crashes)
}

func newViolationLog(names []string) *violationLog {
	return &violationLog{w: os.Stderr, names: names, trails: make([]keyTrail, len(names))}
}

// Load returns the number of violations so far.
func (l *violationLog) Load() uint64 { return l.n.Load() }

// note appends a settled operation to key k's trail.
func (l *violationLog) note(k int, r opRecord) {
	t := &l.trails[k]
	t.mu.Lock()
	t.ops[t.n%trailLen] = r
	t.n++
	t.mu.Unlock()
}

// convict counts one violation on key k and prints it with the key's trail.
func (l *violationLog) convict(k int, format string, args ...any) {
	l.n.Add(1)
	t := &l.trails[k]
	t.mu.Lock()
	var b strings.Builder
	fmt.Fprintf(&b, "violation: %s: %s\n  last %d of %d operations on %s, oldest first:\n",
		l.names[k], fmt.Sprintf(format, args...), min(t.n, trailLen), t.n, l.names[k])
	for i := max(0, t.n-trailLen); i < t.n; i++ {
		fmt.Fprintf(&b, "    %s\n", t.ops[i%trailLen])
	}
	t.mu.Unlock()
	io.WriteString(l.w, b.String()) //nolint:errcheck
}

// finalSweep reads every key after all verdicts have settled: each owner's
// expectation must hold exactly (uniform mode: expected[pid] is worker
// pid's map over its own keys), or every key's value must be explained by
// the write registry (shared mode). get reads key with retries as worker
// pid.
func finalSweep(log *violationLog, tracker *sharedTracker, expected []map[string]int, get func(pid int, key string) (int, error)) error {
	if tracker != nil {
		for k, key := range log.names {
			got, err := get(0, key)
			if err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
			if why := tracker.checkFinal(k, got); why != "" {
				log.convict(k, "final sweep read %d: %s", got, why)
			}
		}
		return nil
	}
	procs := len(expected)
	for pid, exp := range expected {
		for k := pid; k < len(log.names); k += procs {
			key := log.names[k]
			got, err := get(pid, key)
			if err != nil {
				return fmt.Errorf("sweep worker %d: %w", pid, err)
			}
			if got != exp[key] {
				log.convict(k, "final sweep by its owner w%d read %d, want %d (the owner's last linearized write)", pid, got, exp[key])
			}
		}
	}
	return nil
}
