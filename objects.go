package detectable

import (
	"detectable/internal/counter"
	"detectable/internal/kv"
	"detectable/internal/maxreg"
	"detectable/internal/queue"
	"detectable/internal/rcas"
	"detectable/internal/rw"
	"detectable/internal/tas"
)

// Register is a bounded-space detectable read/write register over int
// values (the paper's Algorithm 1).
type Register struct {
	inner rw.Register
}

// NewRegister allocates a detectable register initialized to init, which
// must lie in the domain Write states.
func (s *System) NewRegister(init int) *Register {
	return &Register{inner: rw.NewInt(s.inner, init)}
}

// Write performs a detectable write as process pid. The register stores its
// value and the last writer's ⌈log₂N⌉+1-bit tag in one 64-bit word, so val
// must be a signed integer of 64 − (⌈log₂N⌉+1) bits — [−2^59, 2^59) at
// N = 8; Write panics on any other value before the operation starts.
func (r *Register) Write(pid, val int, plans ...CrashPlan) Outcome[int] {
	return wrap(r.inner.Write(pid, val, unwrapPlans(plans)...))
}

// Read performs a detectable read as process pid.
func (r *Register) Read(pid int, plans ...CrashPlan) Outcome[int] {
	return wrap(r.inner.Read(pid, unwrapPlans(plans)...))
}

// Value returns the register's current value without going through a
// process (for inspection and tests).
func (r *Register) Value() int { return r.inner.PeekTriple().Val }

// CAS is a bounded-space detectable compare-and-swap object over int
// values (the paper's Algorithm 2). It uses N bits of shared memory beyond
// the value — asymptotically optimal by Theorem 1.
type CAS struct {
	inner *rcas.CAS[int]
}

// NewCAS allocates a detectable CAS object initialized to init. The system
// must have at most 64 processes.
func (s *System) NewCAS(init int) *CAS {
	return &CAS{inner: rcas.NewInt(s.inner, init)}
}

// Cas performs a detectable compare-and-swap as process pid: if the value
// equals old it becomes new and the response is true.
func (c *CAS) Cas(pid, old, new int, plans ...CrashPlan) Outcome[bool] {
	return wrap(c.inner.Cas(pid, old, new, unwrapPlans(plans)...))
}

// Read performs a detectable read as process pid.
func (c *CAS) Read(pid int, plans ...CrashPlan) Outcome[int] {
	return wrap(c.inner.Read(pid, unwrapPlans(plans)...))
}

// Value returns the object's current value (for inspection and tests).
func (c *CAS) Value() int { return c.inner.PeekPair().Val }

// MaxRegister is a recoverable max register (the paper's Algorithm 3). It
// needs no auxiliary state: crashed operations recover by re-invocation and
// are always linearized, so outcomes always report Linearized.
type MaxRegister struct {
	inner *maxreg.MaxRegister
}

// NewMaxRegister allocates a max register initialized to 0.
func (s *System) NewMaxRegister() *MaxRegister {
	return &MaxRegister{inner: maxreg.New(s.inner)}
}

// WriteMax raises the register to val if val is larger, as process pid.
func (m *MaxRegister) WriteMax(pid, val int, plans ...CrashPlan) Outcome[int] {
	return wrap(m.inner.WriteMax(pid, val, unwrapPlans(plans)...))
}

// Read returns the largest value ever written, as process pid.
func (m *MaxRegister) Read(pid int, plans ...CrashPlan) Outcome[int] {
	return wrap(m.inner.Read(pid, unwrapPlans(plans)...))
}

// Value returns the register's current value (for inspection and tests).
func (m *MaxRegister) Value() int { return m.inner.Peek() }

// Queue is a detectable durable FIFO queue of ints. Deq outcomes carry
// EmptyQueue when the queue was observed empty.
type Queue struct {
	inner *queue.Queue
}

// EmptyQueue is the Deq response for an empty queue.
const EmptyQueue = -1

// NewQueue allocates an empty detectable queue.
func (s *System) NewQueue() *Queue {
	return &Queue{inner: queue.New(s.inner)}
}

// Enq appends v as process pid.
func (q *Queue) Enq(pid, v int, plans ...CrashPlan) Outcome[int] {
	return wrap(q.inner.Enq(pid, v, unwrapPlans(plans)...))
}

// Deq removes and returns the oldest element as process pid, or EmptyQueue.
func (q *Queue) Deq(pid int, plans ...CrashPlan) Outcome[int] {
	return wrap(q.inner.Deq(pid, unwrapPlans(plans)...))
}

// Values returns the queued elements, oldest first (for inspection).
func (q *Queue) Values() []int { return q.inner.PeekAll() }

// Counter is a recoverable counter with exactly-once increments, composed
// from the detectable CAS: crashed increments are retried only when their
// recovery proves they did not land.
type Counter struct {
	inner *counter.Counter
}

// NewCounter allocates a counter initialized to 0.
func (s *System) NewCounter() *Counter {
	return &Counter{inner: counter.New(s.inner)}
}

// Inc increments exactly once as process pid and returns the new value.
func (c *Counter) Inc(pid int) int { return c.inner.Inc(pid) }

// Value returns the counter's current value as observed by pid.
func (c *Counter) Value(pid int) int { return c.inner.Value(pid) }

// FetchAdd is a recoverable fetch-and-add with exactly-once addition.
type FetchAdd struct {
	inner *counter.FetchAdd
}

// NewFetchAdd allocates a fetch-and-add object initialized to 0.
func (s *System) NewFetchAdd() *FetchAdd {
	return &FetchAdd{inner: counter.NewFetchAdd(s.inner)}
}

// Add adds delta exactly once as process pid, returning the previous value.
func (f *FetchAdd) Add(pid, delta int) int { return f.inner.Add(pid, delta) }

// TAS is a detectable resettable test-and-set object, composed from the
// bounded-space detectable CAS.
type TAS struct {
	inner *tas.TAS
}

// NewTAS allocates a cleared test-and-set object.
func (s *System) NewTAS() *TAS {
	return &TAS{inner: tas.New(s.inner)}
}

// TestAndSet attempts to win the bit as process pid; a linearized response
// of 0 means pid won, 1 means the bit was already set.
func (t *TAS) TestAndSet(pid int, plans ...CrashPlan) Outcome[int] {
	return wrap(t.inner.TestAndSet(pid, unwrapPlans(plans)...))
}

// Reset clears the bit as process pid.
func (t *TAS) Reset(pid int, plans ...CrashPlan) Outcome[int] {
	return wrap(t.inner.Reset(pid, unwrapPlans(plans)...))
}

// Value returns the current bit (for inspection and tests).
func (t *TAS) Value() int { return t.inner.Peek() }

// KV is a recoverable key-value store: one detectable register per key.
type KV struct {
	inner *kv.Store
}

// NewKV allocates an empty store.
func (s *System) NewKV() *KV {
	return &KV{inner: kv.New(s.inner)}
}

// Put writes key := val as process pid with a detectable outcome.
func (k *KV) Put(pid int, key string, val int, plans ...CrashPlan) Outcome[int] {
	return wrap(k.inner.Put(pid, key, val, unwrapPlans(plans)...))
}

// PutDurable writes key := val, retrying failed (not-linearized) attempts
// until the write lands. It returns the number of invocations used.
func (k *KV) PutDurable(pid int, key string, val int) int {
	return k.inner.PutRetry(pid, key, val)
}

// Get reads key as process pid.
func (k *KV) Get(pid int, key string, plans ...CrashPlan) Outcome[int] {
	return wrap(k.inner.Get(pid, key, unwrapPlans(plans)...))
}

// Keys returns all keys ever written, sorted.
func (k *KV) Keys() []string { return k.inner.Keys() }
