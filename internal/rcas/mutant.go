package rcas

// Seeded detectability bugs, as durable's Mutant* bools: the mutation tests
// of internal/explore set one, require a counterexample and restore it,
// before and after any operation runs; production code never sets them.

// MutantDropRDPersist skips line 33's persist of RD_p (the flipped vec[p]
// value) before the CAS attempt. Recovery's line 43 then compares the live
// bit against a stale RD_p: a CAS that succeeded right before the crash is
// reported as fail, yet its new value is visible — exactly the violation
// Lemma 2's invariant rules out.
var MutantDropRDPersist bool

// MutantIdentityFlip runs a Cas(x, x) that reads x through lines 32–37, as
// Algorithm 2 prints them, flipping vec[p]: a concurrent Cas(x, y) then
// fails on the vector alone while C holds x throughout, a false no
// linearization explains.
var MutantIdentityFlip bool
