package shardkv

import "sync/atomic"

// outcome buckets the verdict of one operation execution.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeRecovered
	outcomeFailed
	outcomeNotInvoked
)

// opKind buckets the operation family for stats accounting.
type opKind int

const (
	opGet opKind = iota
	opPut
	opDel
)

// statsStripes is the number of counter stripes per shard, a power of two.
// Counters are striped by pid so that concurrent processes hammering one
// hot shard bump disjoint cache lines instead of bouncing one set of
// shared words between cores — under uniform traffic the stats were
// invisible, under Zipfian skew they were a per-operation shared write.
const statsStripes = 8

// statsStripe is one pid-class's counters, padded to its own cache lines
// so neighboring stripes never false-share.
type statsStripe struct {
	gets, puts, dels atomic.Uint64

	ok, recovered, failed, notInvoked atomic.Uint64

	// crashesSeen counts crash interruptions observed by operations on this
	// stripe's pids (an operation interrupted twice counts twice).
	crashesSeen atomic.Uint64

	// retries counts extra invocations spent by the *Retry wrappers beyond
	// the first (the exactly-once re-invocation budget detectability buys).
	retries atomic.Uint64

	_ [128 - 9*8]byte // pad the 9 words to a 128-byte cache-line pair
}

// Stats aggregates one shard's counters, striped by pid. All methods are
// safe for concurrent use; the zero value is ready.
type Stats struct {
	stripes [statsStripes]statsStripe

	// crashesInjected counts CrashShard calls. Injection comes from a storm
	// goroutine, not the operation hot path, so it stays unstriped.
	crashesInjected atomic.Uint64
}

// stripe returns pid's counter stripe.
func (s *Stats) stripe(pid int) *statsStripe {
	return &s.stripes[uint(pid)&(statsStripes-1)]
}

func (s *Stats) note(pid int, op opKind, oc outcome, crashes int) {
	st := s.stripe(pid)
	switch op {
	case opGet:
		st.gets.Add(1)
	case opPut:
		st.puts.Add(1)
	case opDel:
		st.dels.Add(1)
	}
	switch oc {
	case outcomeOK:
		st.ok.Add(1)
	case outcomeRecovered:
		st.recovered.Add(1)
	case outcomeFailed:
		st.failed.Add(1)
	case outcomeNotInvoked:
		st.notInvoked.Add(1)
	}
	if crashes > 0 {
		st.crashesSeen.Add(uint64(crashes))
	}
}

// noteRetries records one *Retry call by pid that took n invocations.
// Every invocation was already noted individually (op and verdict); only
// the n-1 re-invocations beyond the first are counted here.
func (s *Stats) noteRetries(pid, n int) {
	if n > 1 {
		s.stripe(pid).retries.Add(uint64(n - 1))
	}
}

func (s *Stats) noteInjected() { s.crashesInjected.Add(1) }

// StatsSnapshot is a point-in-time copy of a shard's counters, aggregated
// across the pid stripes.
type StatsSnapshot struct {
	Gets, Puts, Dels uint64

	OK, Recovered, Failed, NotInvoked uint64

	CrashesSeen, CrashesInjected uint64
	Retries                      uint64
}

// Ops returns the total operations recorded.
func (s StatsSnapshot) Ops() uint64 { return s.Gets + s.Puts + s.Dels }

func (s *Stats) snapshot() StatsSnapshot {
	out := StatsSnapshot{CrashesInjected: s.crashesInjected.Load()}
	for i := range s.stripes {
		st := &s.stripes[i]
		out.Gets += st.gets.Load()
		out.Puts += st.puts.Load()
		out.Dels += st.dels.Load()
		out.OK += st.ok.Load()
		out.Recovered += st.recovered.Load()
		out.Failed += st.failed.Load()
		out.NotInvoked += st.notInvoked.Load()
		out.CrashesSeen += st.crashesSeen.Load()
		out.Retries += st.retries.Load()
	}
	return out
}

// Add returns the element-wise sum of two snapshots.
func (a StatsSnapshot) Add(b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Gets:            a.Gets + b.Gets,
		Puts:            a.Puts + b.Puts,
		Dels:            a.Dels + b.Dels,
		OK:              a.OK + b.OK,
		Recovered:       a.Recovered + b.Recovered,
		Failed:          a.Failed + b.Failed,
		NotInvoked:      a.NotInvoked + b.NotInvoked,
		CrashesSeen:     a.CrashesSeen + b.CrashesSeen,
		CrashesInjected: a.CrashesInjected + b.CrashesInjected,
		Retries:         a.Retries + b.Retries,
	}
}
