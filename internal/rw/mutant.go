package rw

// Seeded detectability bugs, as durable's Mutant* bools: the mutation tests
// of internal/explore and internal/kv set one, require their checker to
// convict it and restore it, before and after any operation runs;
// production code never sets them.

// MutantSkipToggleClear skips line 2's clearing of the last writer's
// other-array toggle bit. That bit is the register's ABA protection:
// without the clear, a recovery that observes R unchanged can find a stale
// raised bit and wrongly conclude its write was linearized — claiming Ack
// for a write that never reached R.
var MutantSkipToggleClear bool

// MutantSkipAnnounceReset announces the operation's name but skips the
// caller-side reset of Ann_p.resp to ⊥ and Ann_p.CP to 0. Ann_p and RDp are
// per process, so the reset is all that separates an operation from the
// previous one's leftovers — on any register of the table: a write that
// crashes early then finds the last write's response and claims Ack, or
// finds CP = 2 and finishes a write that never reached R.
var MutantSkipAnnounceReset bool
