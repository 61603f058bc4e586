package nvm

import "sync"

// plane is the shared-cache half of a Bits or Words array: the last flushed
// value of every element and what orders a crash's revert against the
// primitives. The array's own storage is the volatile cache; a nil plane is
// the private-cache model, where every primitive persists at once.
//
// Primitives hold the read-lock while Flush and the revert hold it
// exclusively, and the plane remembers the epoch it last reverted the array
// for: Space.Crash reverts it, and so does the first primitive of a later
// epoch that finds it unreverted (a crash injected by a plan advances the
// epoch without calling Space.Crash). Either way a store of the old epoch
// is wiped and nothing of the new epoch ever is, however the revert races
// with the first operations after the crash.
//
// The plane is one type for every array, not one per element type, so that
// Ctx.pre can take it and end inlines into every primitive.
type plane struct {
	mu        sync.RWMutex
	persisted any // the array's []uint64 (Bits) or []T (Words[T]); guarded by mu (exclusive)
	epoch     *Epoch
	at        uint64 // the epoch the array was last reverted for; guarded by mu
	auto      bool   // flush after every store and CAS (ModelSharedCacheAuto)
	revert    func() // puts persisted back into the array; runs under mu (exclusive)
}

// newPlane returns the plane of an array in sp, registered for crash
// handling.
func newPlane(sp *Space, persisted any, revert func()) *plane {
	p := &plane{
		persisted: persisted,
		epoch:     sp.Epoch(),
		at:        sp.Epoch().Current(),
		auto:      sp.Model() == ModelSharedCacheAuto,
		revert:    revert,
	}
	sp.register(p)
	return p
}

// rlock takes the read-lock a primitive runs under (Ctx.pre calls it),
// re-validates the epoch under it and makes sure the last crash's revert
// has been applied. end releases it and records the primitive.
func (p *plane) rlock(ctx *Ctx) {
	for {
		p.mu.RLock()
		if !ctx.alive() {
			p.mu.RUnlock()
			ctx.CheckAlive() // unwinds with Crashed
		}
		if p.at == ctx.start {
			return
		}
		p.mu.RUnlock()
		p.mu.Lock()
		p.settle(ctx.start)
		p.mu.Unlock()
	}
}

func (p *plane) end(ctx *Ctx, kind OpKind) {
	ctx.count(kind, 1)
	if p != nil {
		p.runlock()
	}
}

// runlock is kept out of line so that end inlines into every primitive: the
// private-cache model pays a nil check for the plane, not a call.
//
//go:noinline
func (p *plane) runlock() { p.mu.RUnlock() }

// settle applies the revert of every crash before epoch now: the array goes
// back to its last flushed values. Callers hold the exclusive lock.
func (p *plane) settle(now uint64) {
	if p.at < now {
		p.revert()
		p.at = now
	}
}

// onCrash applies the revert of a crash no primitive has applied yet. The
// Space calls it with the epoch already advanced; Peek calls it so that a
// checker sees what the next primitive would.
func (p *plane) onCrash() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.settle(p.epoch.Current())
}
