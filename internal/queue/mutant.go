package queue

// MutantDropDeqTargetPersist seeds a detectability bug, as durable's
// Mutant* bools do: the mutation tests of internal/explore set it, require
// a counterexample and restore it, before and after any operation runs;
// production code never sets it. It skips the persist of deqTarget[p]
// before a dequeue claims its node. A crash after the claim CAS then leaves
// recovery with no announced target, so it returns fail for a dequeue that
// removed a value — the value is lost, which a subsequent dequeue exposes
// as an unexplainable Empty.
var MutantDropDeqTargetPersist bool
