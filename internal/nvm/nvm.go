// Package nvm simulates byte-addressable non-volatile main memory for the
// crash-recovery model of Ben-Baruch, Hendler and Rusanovsky (PODC 2020).
//
// The package provides the three memory models of Section 6 of the paper
// (Model), and every cell follows its Space's model through one code path:
//
//   - The private-cache model: every primitive applies directly to
//     simulated NVM. A system-wide crash preserves every cell.
//   - The shared-cache model: primitives apply to a volatile cache, and a
//     value reaches NVM only via Flush. A crash — Space.Crash or one a
//     plan injects — reverts every unflushed store and CAS.
//   - The shared-cache model under the flush-after-write transformation of
//     Izraelevitz et al.: every store and CAS is followed by a Flush.
//
// NewWord allocates a Cell under the private-cache model and a one-word
// Words array under the shared-cache ones; NewWords allocates a Words array
// under every model. Bits packs an array of one-bit cells (Algorithm 1's
// toggle bits) 64 to a word, and Private is a word with a single owning
// process (the announcement structure Ann_p, RD_p), stored without atomics.
//
// Every primitive operation takes a *Ctx, the per-operation execution
// context. The Ctx carries the epoch at which the operation started; when
// the system crashes the epoch advances and the next primitive performed by
// any in-flight operation panics with Crashed. The Go stack unwinds,
// discarding all volatile local variables exactly as a crash discards
// volatile state, while Cells (the simulated NVM) survive.
//
// Crash points therefore sit between primitive operations, which is
// precisely the granularity of the abstract model in the paper: primitives
// themselves are atomic. Every primitive is its own crash point whenever a
// plan is armed; with none armed, Bits.SetRun lands a run of bit stores
// with one atomic instruction per word, since nothing can crash between
// them at a point a test chose.
package nvm

// OpKind identifies the primitive a Ctx is about to perform. Crash plans
// use it to target specific primitives deterministically.
type OpKind int

// Primitive operation kinds.
const (
	KindLoad OpKind = iota + 1
	KindStore
	KindCAS
	KindFlush
)

// String returns a short human-readable name for the primitive kind.
func (k OpKind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindCAS:
		return "cas"
	case KindFlush:
		return "flush"
	default:
		return "unknown"
	}
}
