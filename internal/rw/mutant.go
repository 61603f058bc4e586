package rw

// MutantSkipToggleClear seeds a detectability bug, as durable's Mutant*
// bools do: the mutation tests of internal/explore set it, require a
// counterexample and restore it, before and after any operation runs;
// production code never sets it. It skips line 2's clearing of the last
// writer's other-array toggle bit. That bit is the register's ABA
// protection: without the clear, a recovery that observes R unchanged can
// find a stale raised bit and wrongly conclude its write was linearized —
// claiming Ack for a write that never reached R.
var MutantSkipToggleClear bool
