package nvm

// Private is a non-volatile word owned by one process: the paper's private
// variables (RD_p of Algorithm 1) and the announcement structure Ann_p,
// which only process p ever reads or writes. Because it has a single
// owner, the value is stored plainly — no atomic word, no box per stored
// value — while every Load, Store and Flush is still one primitive: its
// own CellID, step, statistic and crash point.
//
// Single ownership is the caller's contract, not the word's: a process
// runs one operation at a time, and a process identity handed from one
// goroutine to another is handed over with synchronization. A caller that
// breaks it is a data race the race detector reports.
//
// The word follows its Space's memory model without being touched by any
// other goroutine: under the shared-cache models it remembers the epoch of
// the attempt that last wrote the cached value, and the owner's next
// primitive in a later epoch first reverts it to the last flushed value —
// the crash's revert, applied by the only process that can observe it.
type Private[T any] struct {
	v  T
	id int

	// Shared-cache models only (epoch is nil under the private-cache model).
	epoch     *Epoch
	auto      bool   // flush after every store
	at        uint64 // epoch of the attempt that last wrote v
	persisted T
}

// NewPrivate allocates an owner-only word holding init inside sp.
func NewPrivate[T any](sp *Space, init T) *Private[T] {
	p := &Private[T]{v: init, id: sp.noteCell()}
	if m := sp.Model(); m != ModelPrivateCache {
		p.epoch, p.auto, p.at, p.persisted = sp.Epoch(), m == ModelSharedCacheAuto, sp.Epoch().Current(), init
	}
	return p
}

// settle applies a crash's revert: a cached value written in an earlier
// epoch than now was lost, so the word holds its last flushed value.
func (p *Private[T]) settle(now uint64) {
	if p.epoch != nil && p.at != now {
		p.v, p.at = p.persisted, now
	}
}

// Load reads the word.
func (p *Private[T]) Load(ctx *Ctx) T {
	ctx.pre(KindLoad, p.id, nil)
	p.settle(ctx.start)
	ctx.count(KindLoad, 1)
	return p.v
}

// Store writes the word. Under the raw shared-cache model the value is
// volatile until flushed.
func (p *Private[T]) Store(ctx *Ctx, v T) {
	ctx.pre(KindStore, p.id, nil)
	p.v, p.at = v, ctx.start
	ctx.count(KindStore, 1)
	if p.auto {
		p.Flush(ctx)
	}
}

// Flush persists the word's current value. Under the private-cache model
// it only validates the epoch.
func (p *Private[T]) Flush(ctx *Ctx) {
	if p.epoch == nil {
		ctx.CheckAlive()
		return
	}
	ctx.pre(KindFlush, p.id, nil)
	p.settle(ctx.start)
	p.persisted = p.v
	ctx.count(KindFlush, 1)
}
