//go:build race

package shardkv

// Under the race detector sync.Pool.Put drops a random quarter of what it
// is given, so the pooled per-attempt nvm.Ctx is allocated afresh for about
// one operation in four: a pin over a batch of operations, and a pin of
// exact heap bytes, is only meaningful in a plain build (CI's "Allocation
// pins" step runs them there, at GOMAXPROCS 1, 2 and 8).
const raceEnabled = true
