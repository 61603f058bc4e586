// Package kv is a recoverable key-value store built from the paper's
// bounded-space detectable read/write registers (internal/rw): one register
// per key, created on first use. It demonstrates composing many detectable
// objects behind one API while keeping per-object space bounded.
//
// Put returns the detectable verdict for the underlying register write, so
// a caller that crashed mid-put knows whether the new value is visible;
// PutRetry re-invokes on fail for always-succeeds semantics (the NRL
// transformation of Section 6).
//
// A register holds only what belongs to the key — the shared word R and
// 2N²+N bits — and is an element of a chunk, not an allocation: the store's
// rw.Procs table hands registers out of slabs of up to 64, for first writes
// and Restore alike. A key is one entry of the store's key table
// (internal/keytab), and a key is its number: entry n and register n−1 are
// created together, in the same order, under one mutex, so the entry holds
// nothing but the name's 6-byte reference — an 8-byte element of a chunk,
// with the name's bytes in table-owned storage — and the register is
// procs.At(n−1). R is one packed word in its chunk's array, so a key owns
// nothing on the heap beyond its share of those chunks, and overwriting
// its value allocates nothing. The per-process state of Algorithm 1 (RDp
// and the announcements) is that one table per store, shared by all its
// registers, since a process runs one operation at a time.
//
// Key resolution is lock-free: the crash-free hot path of an existing key
// (the only path a skewed workload exercises in steady state) is a hash, a
// short probe and the register's chunk — no locks, no allocation. Only the
// first write of a new key and Restore serialize, on a creation mutex, at
// O(1) amortised cost per key.
package kv

import (
	"sort"
	"sync"

	"detectable/internal/keytab"
	"detectable/internal/nvm"
	"detectable/internal/runtime"
	"detectable/internal/rw"
)

// Store is an N-process recoverable key-value store with int values, those
// of rw.DomainOf(N): Put and Restore panic on any other. Missing keys read
// as the zero value.
type Store struct {
	sys   *runtime.System
	procs *rw.Procs
	mu    sync.Mutex             // serializes creation: NewRegister, then the insert into tbl
	tbl   keytab.Table[struct{}] // entry n is the key of register n−1
}

// New allocates an empty store in sys's memory space.
func New(sys *runtime.System) *Store {
	return &Store{sys: sys, procs: rw.NewProcs(sys)}
}

// Put writes key := val as process pid and returns the detectable outcome.
func (s *Store) Put(pid int, key string, val int, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.reg(key).Write(pid, val, plans...)
}

// PutRetry writes key := val, re-invoking on fail verdicts until the write
// is linearized (NRL semantics). It returns the number of invocations.
func (s *Store) PutRetry(pid int, key string, val int) int {
	reg := s.reg(key)
	_, invocations := runtime.ExecuteNRL(s.sys, pid, func() runtime.Op[int] {
		return reg.WriteOp(pid, val)
	})
	return invocations
}

// Del removes key as process pid and returns the detectable outcome.
// Missing keys read as the zero value, so deletion is a detectable write of
// zero to the key's register: it inherits the register's exactly-once
// crash-recovery verdict, and a subsequent Get observes the key as absent.
func (s *Store) Del(pid int, key string, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.Put(pid, key, 0, plans...)
}

// Get reads key as process pid and returns the detectable outcome.
func (s *Store) Get(pid int, key string, plans ...nvm.CrashPlan) runtime.Outcome[int] {
	return s.reg(key).Read(pid, plans...)
}

// Restore installs key with val as its register's initial state without
// executing a recoverable operation: it is the recovery half of a durable
// restart, where the recovered value plays the role a register's initial
// value plays at allocation time (no primitives run, nothing is announced).
// Restoring a key that already has a register panics — recovery must run
// before the store serves operations.
func (s *Store) Restore(key string, val int) {
	if _, created := s.create(key, val); !created {
		panic("kv: Restore of a key that already has a register")
	}
}

// Keys returns the keys ever written, sorted, for tests and tooling: the
// entries present when the call began, taken without the creation mutex.
func (s *Store) Keys() []string {
	out := make([]string, 0, s.tbl.Len())
	for n := range s.tbl.All() {
		out = append(out, s.tbl.Name(n))
	}
	sort.Strings(out)
	return out
}

// Peek returns key's current value without a Ctx, for tests.
func (s *Store) Peek(key string) int {
	reg, ok := s.lookup(key)
	if !ok {
		return 0
	}
	return reg.PeekTriple().Val
}

// lookup returns key's register without creating it.
func (s *Store) lookup(key string) (rw.Register, bool) {
	if n, _ := s.tbl.Lookup(key); n != 0 {
		return s.procs.At(int(n) - 1), true
	}
	return rw.Register{}, false
}

// reg returns (creating if needed) the register backing key. Register
// creation is treated as metadata management, not a recoverable operation:
// it allocates NVM cells but performs no primitives. The caller's key may
// alias a transient buffer (the server decodes keys zero-copy out of the
// connection frame); the table copies the bytes of a key it inserts — the
// only place this layer retains a key.
func (s *Store) reg(key string) rw.Register {
	if reg, ok := s.lookup(key); ok {
		return reg
	}
	reg, _ := s.create(key, 0)
	return reg
}

// create returns key's register, allocating it with initial value val under
// the creation mutex if key has none — so exactly one register is ever
// allocated per key — and reports whether it did. The register is handed
// out before the entry that names it is published, so a reader that meets
// entry n finds register n−1; the two numberings are one, and create
// panics if they ever part.
func (s *Store) create(key string, val int) (rw.Register, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg, ok := s.lookup(key); ok {
		return reg, false // e.g. lost the race with another first writer
	}
	reg := s.procs.NewRegister(val)
	if n, _ := s.tbl.Insert(key, struct{}{}); s.procs.At(int(n)-1) != reg {
		panic("kv: key number and register number differ")
	}
	return reg, true
}
