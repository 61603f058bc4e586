package runtime

// MutantSkipReset seeds a detectability bug, as durable's Mutant* bools
// do: the mutation tests of internal/explore and internal/kv set it,
// require their checker to convict it and restore it, before and after any
// operation runs; production code never sets it. Ann.Announce then names
// the operation but leaves Resp and CP as the previous operation left
// them — Theorem 2's detectable object without auxiliary state. A
// recovery that finds the last operation's response or checkpoint answers
// from it: a crash early in a write claims Ack, a crash early in a CAS
// claims the previous CAS's verdict.
var MutantSkipReset bool
