package nvm

import "sync/atomic"

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
//   - ModelSharedCacheRaw: the words are the volatile cache; a plane holds
//     each bit's last flushed value, Flush copies one bit into it, and a
//     crash reverts every bit to it.
//   - ModelSharedCacheAuto: as raw, with every Store followed by a Flush of
//     that bit (the flush-after-write transformation).
type Bits struct {
	words []atomic.Uint64
	base  int    // CellID of bit 0; bit i is cell base+i
	n     int    // number of bits
	cache *plane // nil under the private-cache model
}

// NewBits allocates n bits, all 0, inside sp: one contiguous reservation
// of n cell identities and, under the shared-cache models, one crash
// registration for the whole array.
func NewBits(sp *Space, n int) *Bits {
	words := make([]atomic.Uint64, (n+63)/64)
	b := &Bits{words: words, base: sp.noteCells(n), n: n}
	if sp.Model() != ModelPrivateCache {
		persisted := make([]uint64, len(words))
		b.cache = newPlane(sp, persisted, func() {
			for k := range words {
				words[k].Store(persisted[k])
			}
		})
	}
	return b
}

// check panics unless i names one of the array's bits. Every entry point
// runs it: when several objects share an array (rw hands registers out of
// one per chunk), a stray index is a neighbour's bit, not padding.
func (b *Bits) check(i int) {
	if uint(i) >= uint(b.n) {
		panic("nvm: bit index out of range")
	}
}

// Load atomically reads bit i.
func (b *Bits) Load(ctx *Ctx, i int) bool {
	b.check(i)
	ctx.pre(KindLoad, b.base+i, b.cache)
	w := b.words[i>>6].Load()
	b.cache.end(ctx, KindLoad)
	return w>>(i&63)&1 == 1
}

// Store atomically writes bit i, leaving its neighbours in the word alone.
func (b *Bits) Store(ctx *Ctx, i int, v bool) {
	b.check(i)
	ctx.pre(KindStore, b.base+i, b.cache)
	if v {
		b.words[i>>6].Or(1 << (i & 63))
	} else {
		b.words[i>>6].And(^(uint64(1) << (i & 63)))
	}
	b.cache.end(ctx, KindStore)
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
// only validates the epoch.
func (b *Bits) Flush(ctx *Ctx, i int) {
	b.check(i)
	c := b.cache
	if c == nil {
		ctx.CheckAlive()
		return
	}
	ctx.pre(KindFlush, b.base+i, nil)
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx.enter(KindFlush)
	c.settle(ctx.start)
	mask, persisted := uint64(1)<<(i&63), c.persisted.([]uint64)
	persisted[i>>6] = persisted[i>>6]&^mask | b.words[i>>6].Load()&mask
}

// Peek returns bit i's current logical value without a Ctx, for test
// assertions and checkers.
func (b *Bits) Peek(i int) bool {
	b.check(i)
	if b.cache != nil {
		b.cache.onCrash()
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
	return c.persisted.([]uint64)[i>>6]>>(i&63)&1 == 1
}
