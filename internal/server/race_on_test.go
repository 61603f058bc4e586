//go:build race

package server

// Under the race detector sync.Pool.Put drops a random quarter of what it
// is given, so the pooled per-attempt nvm.Ctx is allocated afresh for about
// one operation in four: an allocation pin over a served batch is only
// meaningful in a plain build (CI's "Allocation pins" step runs it there,
// at GOMAXPROCS 1, 2 and 8).
const raceEnabled = true
