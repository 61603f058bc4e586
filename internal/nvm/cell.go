package nvm

import "sync/atomic"

// Register is the read/write primitive interface shared by both memory
// models. Algorithms are written against Register (or CASRegister) so the
// same code runs under the private-cache model (Cell), the raw shared-cache
// model (CachedCell, correct only with explicit flushes) and the
// flush-after-write transformation of Izraelevitz et al. (AutoPersist).
type Register[T comparable] interface {
	// Load atomically reads the register.
	Load(ctx *Ctx) T
	// Store atomically writes the register.
	Store(ctx *Ctx, v T)
	// Flush persists the register's current value to NVM. It is a no-op in
	// the private-cache model, where every primitive persists immediately.
	Flush(ctx *Ctx)
}

// CASRegister is a Register that additionally supports the atomic
// compare-and-swap primitive.
type CASRegister[T comparable] interface {
	Register[T]
	// CompareAndSwap atomically replaces the register's value with new if
	// it currently equals old, reporting whether the swap happened.
	CompareAndSwap(ctx *Ctx, old, new T) bool
	// Peek returns the register's current logical value without a Ctx. It
	// is intended for test assertions and checkers; algorithm code must use
	// Load.
	Peek() T
	// Init sets the register's initial value — cached and persisted alike —
	// without a Ctx: no primitive runs and nothing is counted. It belongs
	// to allocation (a word handed out of a NewWords array that must start
	// on another value than the array's); call it before the register is
	// shared.
	Init(v T)
}

// NewWord allocates a CAS-capable memory word in sp according to sp's
// memory model:
//
//   - ModelPrivateCache: a Cell — every primitive persists immediately;
//     for a packable T, the 16-byte packedCell.
//   - ModelSharedCacheAuto: a CachedCell wrapped in the flush-after-write
//     transformation of Izraelevitz et al. (Section 6 of the paper).
//   - ModelSharedCacheRaw: a bare CachedCell — primitives are volatile
//     until flushed, which breaks algorithms written for the private-cache
//     model (used by tests that demonstrate why the transformation is
//     needed).
//
// All algorithm packages allocate their shared and private non-volatile
// variables through NewWord or NewWords, so the same algorithm code runs
// under every model.
func NewWord[T comparable](sp *Space, init T) CASRegister[T] {
	return NewWords(sp, 1, init).At(0)
}

// Words is one NewWords array. It holds the model's concrete cells, not an
// interface per word: At builds word i's CASRegister on demand, so an
// object whose words are elements of a chunk (rw.Procs) keeps one Words per
// chunk and an index per object.
type Words[T comparable] struct {
	packed []packedCell[T] // the words of a packable T under ModelPrivateCache
	cells  []Cell[T]       // the words of any other T under ModelPrivateCache
	cached *cachedCells[T] // the words under the shared-cache models
}

// At returns word i.
func (w Words[T]) At(i int) CASRegister[T] {
	switch {
	case w.packed != nil:
		return &w.packed[i]
	case w.cells != nil:
		return &w.cells[i]
	case w.cached.auto != nil:
		return &w.cached.auto[i]
	}
	return &w.cached.cells[i]
}

// NewWords allocates n words as NewWord does, all holding init, in one
// piece: one array of the model's cell type, one reservation of n
// contiguous cell identities, one crash registration and — for a boxed T —
// one immutable box of init that every word starts on. A word that must
// start on another value takes it through Init. Under ModelPrivateCache a
// packable T gets packedCells, 16 bytes each; the representation follows
// from T alone.
func NewWords[T comparable](sp *Space, n int, init T) Words[T] {
	base := sp.noteCells(n)
	if sp.Model() == ModelPrivateCache && packable[T]() {
		cells := make([]packedCell[T], n)
		for i := range cells {
			cells[i].id = base + i
			cells[i].bits.Store(pack(init))
		}
		return Words[T]{packed: cells}
	}
	box := newBox(init)
	if sp.Model() == ModelPrivateCache {
		cells := make([]Cell[T], n)
		for i := range cells {
			cells[i].id = base + i
			cells[i].w.start(init, box)
		}
		return Words[T]{cells: cells}
	}
	cs := &cachedCells[T]{cells: make([]CachedCell[T], n)}
	for i := range cs.cells {
		c := &cs.cells[i]
		c.id, c.persisted = base+i, init
		c.cached.start(init, box)
	}
	sp.register(cs)
	if sp.Model() == ModelSharedCacheAuto {
		cs.auto = make([]AutoPersist[T], n)
		for i := range cs.auto {
			cs.auto[i].inner = &cs.cells[i]
		}
	}
	return Words[T]{cached: cs}
}

// Cell is an atomic non-volatile memory word in the private-cache model:
// every primitive is applied directly to NVM, so a system-wide crash
// preserves the cell's value.
//
// The value lives in an atomic word and a primitive is Ctx.pre — where the
// epoch is validated and the crash plan, step hooks and the explorer's
// parking run — then one atomic instruction on that word, then the count. A
// crash reverts nothing here, so no lock orders a primitive against it, and
// arming a plan changes nothing but the hooks.
//
// Use NewCell to allocate one inside a Space.
type Cell[T comparable] struct {
	w  word[T]
	id int
}

// NewCell allocates a cell holding init inside sp. The Space records the
// allocation for space accounting; Cells need no crash handling.
func NewCell[T comparable](sp *Space, init T) *Cell[T] {
	c := &Cell[T]{id: sp.noteCell()}
	c.w.start(init, newBox(init))
	return c
}

var _ CASRegister[int] = (*Cell[int])(nil)

// Load atomically reads the cell.
func (c *Cell[T]) Load(ctx *Ctx) T {
	ctx.pre(KindLoad, c.id)
	v := c.w.load()
	ctx.count(KindLoad)
	return v
}

// Store atomically writes the cell. In the private-cache model the value is
// persisted immediately.
func (c *Cell[T]) Store(ctx *Ctx, v T) {
	ctx.pre(KindStore, c.id)
	c.w.store(v)
	ctx.count(KindStore)
}

// CompareAndSwap atomically replaces the cell's value with new if it equals
// old, reporting whether the swap happened.
func (c *Cell[T]) CompareAndSwap(ctx *Ctx, old, new T) bool {
	ctx.pre(KindCAS, c.id)
	ok := c.w.cas(old, new)
	ctx.count(KindCAS)
	return ok
}

// Flush is a no-op: private-cache primitives persist immediately. It still
// validates the epoch so crash points remain between primitives.
func (c *Cell[T]) Flush(ctx *Ctx) {
	ctx.CheckAlive()
}

// Peek returns the cell's value without a Ctx. It is intended for test
// assertions and checkers that inspect post-crash NVM state; algorithm code
// must use Load.
func (c *Cell[T]) Peek() T {
	return c.w.load()
}

// Init implements CASRegister.
func (c *Cell[T]) Init(v T) {
	c.w.store(v)
}

// packedCell is a Cell for a packable T: the word is its value's bits and
// nothing else — no box pointers — so a cell is 16 bytes with its
// identity. Each primitive is the Cell's: Ctx.pre, one atomic instruction,
// the count. NewWords hands these out; a Cell of the same T behaves alike.
type packedCell[T comparable] struct {
	bits atomic.Int64
	id   int
}

var _ CASRegister[int] = (*packedCell[int])(nil)

// Load atomically reads the cell.
func (c *packedCell[T]) Load(ctx *Ctx) T {
	ctx.pre(KindLoad, c.id)
	v := unpack[T](c.bits.Load())
	ctx.count(KindLoad)
	return v
}

// Store atomically writes the cell, persisting it.
func (c *packedCell[T]) Store(ctx *Ctx, v T) {
	ctx.pre(KindStore, c.id)
	c.bits.Store(pack(v))
	ctx.count(KindStore)
}

// CompareAndSwap atomically replaces the cell's value with new if it equals
// old: for a packable kind, bitwise equality is value equality.
func (c *packedCell[T]) CompareAndSwap(ctx *Ctx, old, new T) bool {
	ctx.pre(KindCAS, c.id)
	ok := c.bits.CompareAndSwap(pack(old), pack(new))
	ctx.count(KindCAS)
	return ok
}

// Flush is a no-op that validates the epoch, like Cell.Flush.
func (c *packedCell[T]) Flush(ctx *Ctx) { ctx.CheckAlive() }

// Peek implements CASRegister.
func (c *packedCell[T]) Peek() T { return unpack[T](c.bits.Load()) }

// Init implements CASRegister.
func (c *packedCell[T]) Init(v T) { c.bits.Store(pack(v)) }
