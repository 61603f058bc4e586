package nvm

import (
	"sync"
	"sync/atomic"
)

// Bits is an array of one-bit memory cells packed 64 to an atomic word —
// the paper's granularity for Algorithm 1's toggle bits, which are counted
// in bits, not machine words. Packing changes the storage only: every bit
// is still one logical cell with its own CellID, and every Load, Store and
// Flush of a bit is one primitive with its own step, statistic and —
// whenever a plan is armed — crash point, exactly as if the bit were a
// Cell[bool]. SetRun, the stores of a run of adjacent bits, is one atomic
// Or per word when no plan is armed and no cache is in the way.
//
// The array follows its Space's memory model through one code path:
//
//   - ModelPrivateCache: a store is an atomic Or/And on the bit's word and
//     persists immediately; Flush only validates the epoch.
//   - ModelSharedCacheRaw: the words are the volatile cache; a second plane
//     holds each bit's last flushed value, Flush copies one bit into it,
//     and a crash reverts every bit to it.
//   - ModelSharedCacheAuto: as raw, with every Store followed by a Flush of
//     that bit (the flush-after-write transformation).
//
// Under the shared-cache models primitives hold the array's read-lock while
// Flush and the crash revert hold it exclusively, and the array remembers
// the epoch it was last reverted for: Space.Crash reverts it, and so does
// the first primitive of a later epoch that finds it unreverted (a crash
// injected by a plan advances the epoch without calling Space.Crash). Either
// way a store of the old epoch is wiped and nothing of the new epoch ever
// is, however the revert races with the first operations after the crash.
type Bits struct {
	words []atomic.Uint64
	base  int        // CellID of bit 0; bit i is cell base+i
	n     int        // number of bits
	cache *bitsCache // nil under the private-cache model
}

// bitsCache is the shared-cache half of a Bits array.
type bitsCache struct {
	mu        sync.RWMutex
	persisted []uint64 // guarded by mu (exclusive)
	epoch     *Epoch
	at        uint64 // the epoch the words were last reverted for; guarded by mu
	auto      bool   // flush after every store
}

// NewBits allocates n bits, all 0, inside sp: one contiguous reservation
// of n cell identities and, under the shared-cache models, one crash
// registration for the whole array.
func NewBits(sp *Space, n int) *Bits {
	words := (n + 63) / 64
	b := &Bits{words: make([]atomic.Uint64, words), base: sp.noteCells(n), n: n}
	if m := sp.Model(); m != ModelPrivateCache {
		b.cache = &bitsCache{
			persisted: make([]uint64, words),
			epoch:     sp.Epoch(),
			at:        sp.Epoch().Current(),
			auto:      m == ModelSharedCacheAuto,
		}
		sp.register(b)
	}
	return b
}

var _ crashable = (*Bits)(nil)

// CellID returns the cell identity of bit i, as Ctx.CellID reports it.
func (b *Bits) CellID(i int) int { return b.base + i }

// begin runs the bookkeeping before a primitive on bit i and, under the
// shared-cache models, takes the read-lock, re-validates the epoch under it
// and makes sure the last crash's revert has been applied. end releases the
// lock and records the primitive.
func (b *Bits) begin(ctx *Ctx, kind OpKind, i int) {
	b.check(i)
	ctx.pre(kind, b.base+i)
	c := b.cache
	if c == nil {
		return
	}
	for {
		c.mu.RLock()
		if !ctx.alive() {
			c.mu.RUnlock()
			ctx.CheckAlive() // unwinds with Crashed
		}
		if c.at == ctx.start {
			return
		}
		c.mu.RUnlock()
		c.mu.Lock()
		b.settle(ctx.start)
		c.mu.Unlock()
	}
}

// check panics unless i names one of the array's bits. Every entry point
// runs it: when several objects share an array (rw hands registers out of
// one per chunk), a stray index is a neighbour's bit, not padding.
func (b *Bits) check(i int) {
	if uint(i) >= uint(b.n) {
		panic("nvm: bit index out of range")
	}
}

// settle applies the revert of every crash before epoch now: the words go
// back to their last flushed values. Callers hold the exclusive lock.
func (b *Bits) settle(now uint64) {
	if c := b.cache; c.at < now {
		for k := range b.words {
			b.words[k].Store(c.persisted[k])
		}
		c.at = now
	}
}

func (b *Bits) end(ctx *Ctx, kind OpKind) {
	if c := b.cache; c != nil {
		c.mu.RUnlock()
	}
	ctx.count(kind, 1)
}

// Load atomically reads bit i.
func (b *Bits) Load(ctx *Ctx, i int) bool {
	b.begin(ctx, KindLoad, i)
	w := b.words[i>>6].Load()
	b.end(ctx, KindLoad)
	return w>>(i&63)&1 == 1
}

// Store atomically writes bit i, leaving its neighbours in the word alone.
func (b *Bits) Store(ctx *Ctx, i int, v bool) {
	b.begin(ctx, KindStore, i)
	if v {
		b.words[i>>6].Or(1 << (i & 63))
	} else {
		b.words[i>>6].And(^(uint64(1) << (i & 63)))
	}
	b.end(ctx, KindStore)
	if c := b.cache; c != nil && c.auto {
		b.Flush(ctx, i)
	}
}

// SetRun stores 1 into the n bits i, i+1 … i+n−1: n Store primitives and
// n steps. With a crash plan armed, or under a shared-cache model, it is
// exactly n Stores, each with its own crash point; otherwise nothing can
// crash between them or see them land one by one, so it raises them with
// one atomic Or per word the run touches.
func (b *Bits) SetRun(ctx *Ctx, i, n int) {
	if ctx.plan != nil || b.cache != nil {
		for k := i; k < i+n; k++ {
			b.Store(ctx, k, true)
		}
		return
	}
	if n <= 0 {
		return
	}
	b.check(i)
	b.check(i + n - 1)
	ctx.steps += uint64(n)
	ctx.CheckAlive()
	for k, end := i, i+n; k < end; {
		lo := k & 63
		w := min(64-lo, end-k)
		b.words[k>>6].Or(^uint64(0) >> (64 - w) << lo)
		k += w
	}
	ctx.count(KindStore, uint64(n))
}

// Flush persists bit i's current value. Under the private-cache model it
// only validates the epoch, like Cell.Flush.
func (b *Bits) Flush(ctx *Ctx, i int) {
	b.check(i)
	c := b.cache
	if c == nil {
		ctx.CheckAlive()
		return
	}
	ctx.pre(KindFlush, b.base+i)
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx.enter(KindFlush)
	b.settle(ctx.start)
	mask := uint64(1) << (i & 63)
	c.persisted[i>>6] = c.persisted[i>>6]&^mask | b.words[i>>6].Load()&mask
}

// onCrash reverts every bit to its last flushed value. Called by the Space
// with the epoch already advanced.
func (b *Bits) onCrash() {
	c := b.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	b.settle(c.epoch.Current())
}

// Peek returns bit i's current logical value without a Ctx, for test
// assertions and checkers.
func (b *Bits) Peek(i int) bool {
	b.check(i)
	if c := b.cache; c != nil {
		c.mu.RLock()
		defer c.mu.RUnlock()
		if c.at != c.epoch.Current() {
			return c.persisted[i>>6]>>(i&63)&1 == 1
		}
	}
	return b.words[i>>6].Load()>>(i&63)&1 == 1
}

// PeekPersisted returns bit i's value in NVM without a Ctx: the last
// flushed value under the shared-cache models, the current one otherwise.
func (b *Bits) PeekPersisted(i int) bool {
	b.check(i)
	c := b.cache
	if c == nil {
		return b.Peek(i)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.persisted[i>>6]>>(i&63)&1 == 1
}
