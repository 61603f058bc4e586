package nvm

import "sync/atomic"

// CASRegister is the primitive interface of one NewWord word, shared by
// every memory model. Algorithms are written against it so the same code
// runs under the private-cache model, the raw shared-cache model (where
// nothing flushes a word, so a crash reverts it to its initial value) and
// the flush-after-write transformation of Izraelevitz et al.; NewWord picks
// the word for the Space's model.
type CASRegister[T comparable] interface {
	// Load atomically reads the register.
	Load(ctx *Ctx) T
	// Store atomically writes the register.
	Store(ctx *Ctx, v T)
	// CompareAndSwap atomically replaces the register's value with new if
	// it currently equals old, reporting whether the swap happened.
	CompareAndSwap(ctx *Ctx, old, new T) bool
	// Peek returns the register's current logical value without a Ctx. It
	// is intended for test assertions and checkers; algorithm code must use
	// Load.
	Peek() T
}

// NewWord allocates a CAS-capable memory word in sp according to sp's
// memory model:
//
//   - ModelPrivateCache: a Cell — every primitive persists immediately.
//   - ModelSharedCacheAuto and ModelSharedCacheRaw: a one-word Words array,
//     which follows the model as every Words array does.
//
// All algorithm packages allocate their shared and private non-volatile
// variables through NewWord or NewWords, so the same algorithm code runs
// under every model.
func NewWord[T comparable](sp *Space, init T) CASRegister[T] {
	if sp.Model() == ModelPrivateCache {
		return NewCell(sp, init)
	}
	return &oneWord[T]{NewWords(sp, 1, init)}
}

// oneWord is NewWord's word under the shared-cache models: word 0 of a
// one-word array.
type oneWord[T comparable] struct{ ws Words[T] }

func (o *oneWord[T]) Load(ctx *Ctx) T     { return o.ws.Load(ctx, 0) }
func (o *oneWord[T]) Store(ctx *Ctx, v T) { o.ws.Store(ctx, 0, v) }
func (o *oneWord[T]) Peek() T             { return o.ws.Peek(0) }
func (o *oneWord[T]) CompareAndSwap(ctx *Ctx, old, new T) bool {
	return o.ws.CompareAndSwap(ctx, 0, old, new)
}

// Words is one NewWords array, addressed by index: word i is cell base+i,
// as bit i of a Bits array is, and its primitives are the methods below
// with i as their first argument. It holds no interface or identity per
// word, so an object whose words are elements of a chunk (rw.Procs) keeps
// one Words per chunk and an index per object.
//
// The words hold the value every primitive reads and writes: a packable T
// as its bits alone, one atomic.Int64 per word, any other T as a boxed
// word. The array follows its Space's memory model as Bits does: under the
// shared-cache models the words are the volatile cache, a plane holds each
// word's last flushed value and a crash reverts the words to it, and under
// ModelSharedCacheAuto every Store and CompareAndSwap is followed by a
// Flush of that word.
type Words[T comparable] struct {
	packed []atomic.Int64 // a packable T: the bits alone
	boxed  []word[T]      // any other T
	base   int            // CellID of word 0
	cache  *plane         // nil under the private-cache model
}

// NewWords allocates n words as NewWord does, all holding init, in one
// piece: one array of the words, one reservation of n contiguous cell
// identities, one crash registration and — for a boxed T — one immutable
// box of init that every word starts on. A word that must start on another
// value takes it through Init. The representation follows from T alone.
func NewWords[T comparable](sp *Space, n int, init T) Words[T] {
	w := Words[T]{base: sp.noteCells(n)}
	if packable[T]() {
		w.packed = make([]atomic.Int64, n)
		for i := range w.packed {
			w.packed[i].Store(pack(init))
		}
	} else {
		w.boxed = make([]word[T], n)
		box := newBox(init)
		for i := range w.boxed {
			w.boxed[i].start(init, box)
		}
	}
	if sp.Model() != ModelPrivateCache {
		persisted := make([]T, n)
		for i := range persisted {
			persisted[i] = init
		}
		ws := w // the words the plane reverts; w itself is returned by value
		w.cache = newPlane(sp, persisted, func() {
			for i, v := range persisted {
				ws.set(i, v)
			}
		})
	}
	return w
}

// get, set and cas are word i's atomic instruction for Load, Store and
// CompareAndSwap. For a packed kind bitwise equality is value equality, so
// the hardware CAS is the value CAS.
func (w *Words[T]) get(i int) T {
	if w.packed != nil {
		return unpack[T](w.packed[i].Load())
	}
	return w.boxed[i].load()
}

func (w *Words[T]) set(i int, v T) {
	if w.packed != nil {
		w.packed[i].Store(pack(v))
		return
	}
	w.boxed[i].store(v)
}

func (w *Words[T]) cas(i int, old, new T) bool {
	if w.packed != nil {
		return w.packed[i].CompareAndSwap(pack(old), pack(new))
	}
	return w.boxed[i].cas(old, new)
}

// Load atomically reads word i.
func (w *Words[T]) Load(ctx *Ctx, i int) T {
	ctx.pre(KindLoad, w.base+i, w.cache)
	v := w.get(i)
	w.cache.end(ctx, KindLoad)
	return v
}

// Store atomically writes word i. Under the raw shared-cache model the
// value is volatile until flushed.
func (w *Words[T]) Store(ctx *Ctx, i int, v T) {
	ctx.pre(KindStore, w.base+i, w.cache)
	w.set(i, v)
	w.cache.end(ctx, KindStore)
	if c := w.cache; c != nil && c.auto {
		w.Flush(ctx, i)
	}
}

// CompareAndSwap atomically replaces word i's value with new if it equals
// old, reporting whether the swap happened. Like Store, the effect is
// volatile until flushed under the raw shared-cache model.
func (w *Words[T]) CompareAndSwap(ctx *Ctx, i int, old, new T) bool {
	ctx.pre(KindCAS, w.base+i, w.cache)
	ok := w.cas(i, old, new)
	w.cache.end(ctx, KindCAS)
	if c := w.cache; c != nil && c.auto {
		w.Flush(ctx, i)
	}
	return ok
}

// Flush persists word i's current value. Under the private-cache model it
// only validates the epoch.
func (w *Words[T]) Flush(ctx *Ctx, i int) {
	c := w.cache
	if c == nil {
		ctx.CheckAlive()
		return
	}
	ctx.pre(KindFlush, w.base+i, nil)
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx.enter(KindFlush)
	c.settle(ctx.start)
	c.persisted.([]T)[i] = w.get(i)
}

// Peek returns word i's current logical value without a Ctx, for test
// assertions and checkers; algorithm code must use Load.
func (w *Words[T]) Peek(i int) T {
	if w.cache != nil {
		w.cache.onCrash()
	}
	return w.get(i)
}

// Init sets word i's initial value — current and persisted alike — without
// a Ctx: no primitive runs and nothing is counted. It belongs to allocation
// (a word handed out of an array that must start on another value than the
// array's); call it before the word is shared.
func (w *Words[T]) Init(i int, v T) {
	if c := w.cache; c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.persisted.([]T)[i] = v
	}
	w.set(i, v)
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
	ctx.pre(KindLoad, c.id, nil)
	v := c.w.load()
	ctx.count(KindLoad, 1)
	return v
}

// Store atomically writes the cell. In the private-cache model the value is
// persisted immediately.
func (c *Cell[T]) Store(ctx *Ctx, v T) {
	ctx.pre(KindStore, c.id, nil)
	c.w.store(v)
	ctx.count(KindStore, 1)
}

// CompareAndSwap atomically replaces the cell's value with new if it equals
// old, reporting whether the swap happened.
func (c *Cell[T]) CompareAndSwap(ctx *Ctx, old, new T) bool {
	ctx.pre(KindCAS, c.id, nil)
	ok := c.w.cas(old, new)
	ctx.count(KindCAS, 1)
	return ok
}

// Peek returns the cell's value without a Ctx. It is intended for test
// assertions and checkers that inspect post-crash NVM state; algorithm code
// must use Load.
func (c *Cell[T]) Peek() T {
	return c.w.load()
}
