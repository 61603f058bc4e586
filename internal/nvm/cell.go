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
//   - ModelPrivateCache: a Cell — every primitive persists immediately.
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
	if sp.Model() == ModelPrivateCache {
		return NewCell(sp, init)
	}
	ws := NewWords(sp, 1, init)
	return ws.cell(0)
}

// Words is one NewWords array, addressed by index: word i is cell base+i,
// as bit i of a Bits array is, and its primitives are the methods below
// with i as their first argument. It holds the model's concrete storage,
// one field per representation, and no interface or identity per word, so
// an object whose words are elements of a chunk (rw.Procs) keeps one Words
// per chunk and an index per object.
type Words[T comparable] struct {
	packed []atomic.Int64  // a packable T under ModelPrivateCache: the bits alone
	cells  []Cell[T]       // any other T under ModelPrivateCache
	cached *cachedCells[T] // the words under the shared-cache models
	base   int             // CellID of word 0
}

// NewWords allocates n words as NewWord does, all holding init, in one
// piece: one array of the model's storage, one reservation of n contiguous
// cell identities, one crash registration and — for a boxed T — one
// immutable box of init that every word starts on. A word that must start
// on another value takes it through Init. Under ModelPrivateCache a
// packable T is stored as its bits alone, 8 bytes a word; the
// representation follows from T alone.
func NewWords[T comparable](sp *Space, n int, init T) Words[T] {
	base := sp.noteCells(n)
	if sp.Model() == ModelPrivateCache && packable[T]() {
		words := make([]atomic.Int64, n)
		for i := range words {
			words[i].Store(pack(init))
		}
		return Words[T]{packed: words, base: base}
	}
	box := newBox(init)
	if sp.Model() == ModelPrivateCache {
		cells := make([]Cell[T], n)
		for i := range cells {
			cells[i].id = base + i
			cells[i].w.start(init, box)
		}
		return Words[T]{cells: cells, base: base}
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
	return Words[T]{cached: cs, base: base}
}

// cell returns word i of a boxed or shared-cache array: a cell of its own
// that carries its identity.
func (w *Words[T]) cell(i int) CASRegister[T] {
	switch {
	case w.cells != nil:
		return &w.cells[i]
	case w.cached.auto != nil:
		return &w.cached.auto[i]
	}
	return &w.cached.cells[i]
}

// Load atomically reads word i. A packed word's primitives are a Cell's —
// Ctx.pre, one atomic instruction, the count — on bits whose identity is
// base+i.
func (w *Words[T]) Load(ctx *Ctx, i int) T {
	if w.packed == nil {
		return w.cell(i).Load(ctx)
	}
	ctx.pre(KindLoad, w.base+i)
	v := unpack[T](w.packed[i].Load())
	ctx.count(KindLoad, 1)
	return v
}

// Store atomically writes word i.
func (w *Words[T]) Store(ctx *Ctx, i int, v T) {
	if w.packed == nil {
		w.cell(i).Store(ctx, v)
		return
	}
	ctx.pre(KindStore, w.base+i)
	w.packed[i].Store(pack(v))
	ctx.count(KindStore, 1)
}

// CompareAndSwap atomically replaces word i's value with new if it equals
// old, reporting whether the swap happened. For a packed kind bitwise
// equality is value equality, so the hardware CAS is the value CAS.
func (w *Words[T]) CompareAndSwap(ctx *Ctx, i int, old, new T) bool {
	if w.packed == nil {
		return w.cell(i).CompareAndSwap(ctx, old, new)
	}
	ctx.pre(KindCAS, w.base+i)
	ok := w.packed[i].CompareAndSwap(pack(old), pack(new))
	ctx.count(KindCAS, 1)
	return ok
}

// Flush persists word i: a no-op that validates the epoch under the
// private-cache model, like Cell.Flush.
func (w *Words[T]) Flush(ctx *Ctx, i int) {
	if w.packed == nil {
		w.cell(i).Flush(ctx)
		return
	}
	ctx.CheckAlive()
}

// Peek returns word i's current value without a Ctx; see CASRegister.
func (w *Words[T]) Peek(i int) T {
	if w.packed == nil {
		return w.cell(i).Peek()
	}
	return unpack[T](w.packed[i].Load())
}

// Init sets word i's initial value without a Ctx; see CASRegister.
func (w *Words[T]) Init(i int, v T) {
	if w.packed == nil {
		w.cell(i).Init(v)
		return
	}
	w.packed[i].Store(pack(v))
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
	ctx.count(KindLoad, 1)
	return v
}

// Store atomically writes the cell. In the private-cache model the value is
// persisted immediately.
func (c *Cell[T]) Store(ctx *Ctx, v T) {
	ctx.pre(KindStore, c.id)
	c.w.store(v)
	ctx.count(KindStore, 1)
}

// CompareAndSwap atomically replaces the cell's value with new if it equals
// old, reporting whether the swap happened.
func (c *Cell[T]) CompareAndSwap(ctx *Ctx, old, new T) bool {
	ctx.pre(KindCAS, c.id)
	ok := c.w.cas(old, new)
	ctx.count(KindCAS, 1)
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
