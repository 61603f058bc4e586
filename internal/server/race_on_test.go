//go:build race

package server

// Race instrumentation allocates on goroutine spawn and channel hand-off,
// so allocation pins that cross the store's parallel fan-out path are
// only meaningful in a plain build (CI's "Allocation pins" step runs them
// there, at GOMAXPROCS 1, 2 and 8).
const raceEnabled = true
