package nvm

import "sync"

// CachedCell is an atomic memory word in the shared-cache model of
// Izraelevitz et al.: primitives are applied to a volatile shared cache and
// reach NVM only when explicitly flushed. A system-wide crash discards the
// cached value, reverting the cell to its last flushed value.
//
// The cached value lives in an atomic word, so Load/Store/CAS attempts run
// concurrently under a shared read-lock; only Flush and the crash revert
// take the exclusive lock. The read-lock is what preserves the crash
// ordering invariant: a store serialized before the revert completes before
// the revert wipes it, and a store serialized after acquires the lock after
// the epoch advanced, re-validates it and dies instead of resurrecting the
// lost value.
//
// Algorithms written for the private-cache model are generally incorrect on
// raw CachedCells (tests exploit this to demonstrate why the flush
// transformation is needed); wrap the cell in AutoPersist to apply the
// syntactic flush-after-write transformation from Section 6 of the paper.
type CachedCell[T comparable] struct {
	mu        sync.RWMutex
	cached    word[T]
	persisted T // guarded by mu (exclusive)
	id        int
}

// NewCachedCell allocates a shared-cache cell holding init inside sp and
// registers it for crash handling.
func NewCachedCell[T comparable](sp *Space, init T) *CachedCell[T] {
	c := &CachedCell[T]{persisted: init, id: sp.noteCell()}
	c.cached.start(init, newBox(init))
	sp.register(c)
	return c
}

// cachedCells is one NewWords array of shared-cache cells, registered for
// crash handling as a whole, and under ModelSharedCacheAuto the
// flush-after-write wrapper of each.
type cachedCells[T comparable] struct {
	cells []CachedCell[T]
	auto  []AutoPersist[T]
}

func (cs *cachedCells[T]) onCrash() {
	for i := range cs.cells {
		cs.cells[i].onCrash()
	}
}

var _ CASRegister[int] = (*CachedCell[int])(nil)
var _ crashable = (*CachedCell[int])(nil)

// rlock takes the shared lock a primitive runs under and re-validates the
// epoch inside it: a primitive serialized after a crash's revert dies here.
func (c *CachedCell[T]) rlock(ctx *Ctx) {
	c.mu.RLock()
	if !ctx.alive() {
		c.mu.RUnlock()
		ctx.CheckAlive() // unwinds with Crashed
	}
}

// Load atomically reads the cached value.
func (c *CachedCell[T]) Load(ctx *Ctx) T {
	ctx.pre(KindLoad, c.id)
	c.rlock(ctx)
	v := c.cached.load()
	c.mu.RUnlock()
	ctx.count(KindLoad, 1)
	return v
}

// Store atomically writes the cached value. The store is volatile until the
// cell is flushed.
func (c *CachedCell[T]) Store(ctx *Ctx, v T) {
	ctx.pre(KindStore, c.id)
	c.rlock(ctx)
	c.cached.store(v)
	c.mu.RUnlock()
	ctx.count(KindStore, 1)
}

// CompareAndSwap atomically replaces the cached value with new if it equals
// old, reporting whether the swap happened. Like Store, the effect is
// volatile until flushed.
func (c *CachedCell[T]) CompareAndSwap(ctx *Ctx, old, new T) bool {
	ctx.pre(KindCAS, c.id)
	c.rlock(ctx)
	ok := c.cached.cas(old, new)
	c.mu.RUnlock()
	ctx.count(KindCAS, 1)
	return ok
}

// Flush persists the cached value to NVM.
func (c *CachedCell[T]) Flush(ctx *Ctx) {
	ctx.pre(KindFlush, c.id)
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx.enter(KindFlush)
	c.persisted = c.cached.load()
}

// onCrash reverts the cell to its last persisted value. Called by the Space
// with the epoch already advanced, so in-flight primitives serialized after
// the revert observe the crash and panic instead of resurrecting the lost
// value.
func (c *CachedCell[T]) onCrash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cached.store(c.persisted)
}

// Peek returns the cell's cached (current logical) value without a Ctx,
// for test assertions.
func (c *CachedCell[T]) Peek() T {
	return c.cached.load()
}

// Init implements CASRegister.
func (c *CachedCell[T]) Init(v T) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cached.store(v)
	c.persisted = v
}

// PeekPersisted returns the cell's persisted value without a Ctx, for test
// assertions about post-crash NVM contents.
func (c *CachedCell[T]) PeekPersisted() T {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.persisted
}

// AutoPersist wraps a CASRegister with the syntactic flush-after-write
// transformation of Izraelevitz et al. (Section 6 of the paper): every Store
// and CompareAndSwap is immediately followed by a Flush, so an algorithm
// proven correct in the private-cache model remains correct in the
// shared-cache model without source changes.
type AutoPersist[T comparable] struct {
	inner CASRegister[T]
}

// NewAutoPersist wraps inner with the flush-after-write transformation.
func NewAutoPersist[T comparable](inner CASRegister[T]) *AutoPersist[T] {
	return &AutoPersist[T]{inner: inner}
}

var _ CASRegister[int] = (*AutoPersist[int])(nil)

// Load atomically reads the underlying register.
func (a *AutoPersist[T]) Load(ctx *Ctx) T { return a.inner.Load(ctx) }

// Peek returns the underlying register's current logical value.
func (a *AutoPersist[T]) Peek() T { return a.inner.Peek() }

// Init sets the underlying register's initial value.
func (a *AutoPersist[T]) Init(v T) { a.inner.Init(v) }

// Store writes the underlying register and immediately persists it.
func (a *AutoPersist[T]) Store(ctx *Ctx, v T) {
	a.inner.Store(ctx, v)
	a.inner.Flush(ctx)
}

// CompareAndSwap performs the swap on the underlying register and
// immediately persists it.
func (a *AutoPersist[T]) CompareAndSwap(ctx *Ctx, old, new T) bool {
	ok := a.inner.CompareAndSwap(ctx, old, new)
	a.inner.Flush(ctx)
	return ok
}

// Flush persists the underlying register.
func (a *AutoPersist[T]) Flush(ctx *Ctx) { a.inner.Flush(ctx) }
