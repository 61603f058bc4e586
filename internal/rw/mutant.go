package rw

// Mutant selects a seeded detectability bug. The mutation smoke-check in
// internal/explore enables one, asserts the schedule explorer produces a
// counterexample, and restores MutantNone — validating that the checker
// catches real protocol violations. Production code never sets a mutant.
type Mutant int

// Seeded bugs.
const (
	// MutantNone is the unmutated algorithm.
	MutantNone Mutant = iota
	// MutantSkipToggleClear skips line 2's clearing of the last writer's
	// other-array toggle bit. That bit is the register's ABA protection:
	// without the clear, a recovery that observes R unchanged can find a
	// stale raised bit and wrongly conclude its write was linearized —
	// claiming Ack for a write that never reached R.
	MutantSkipToggleClear
	// MutantSkipAnnounceReset announces the operation's name but skips the
	// caller-side reset of Ann_p.resp to ⊥ and Ann_p.CP to 0. Ann_p and RDp
	// are per process, so the reset is all that separates an operation from
	// the previous one's leftovers — on any register of the table: a write
	// that crashes early then finds the last write's response and claims
	// Ack, or finds CP = 2 and finishes a write that never reached R.
	MutantSkipAnnounceReset
)

// mutant is read on the operation path; it is written only by tests, before
// any operation runs (the write happens-before the goroutines that read it).
var mutant Mutant

// SetMutant installs m until the next call. Tests must restore MutantNone.
func SetMutant(m Mutant) { mutant = m }
