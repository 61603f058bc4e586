package rcas

// MutantDropRDPersist seeds a detectability bug, as durable's Mutant* bools
// do: the mutation tests of internal/explore set it, require a
// counterexample and restore it, before and after any operation runs;
// production code never sets it. It skips line 33's persist of RD_p (the
// flipped vec[p] value) before the CAS attempt. Recovery's line 43 then
// compares the live bit against a stale RD_p: a CAS that succeeded right
// before the crash is reported as fail, yet its new value is visible —
// exactly the violation Lemma 2's invariant rules out.
var MutantDropRDPersist bool
