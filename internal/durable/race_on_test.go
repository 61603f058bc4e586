//go:build race

package durable

// Race instrumentation allocates on goroutine and channel hand-off, so the
// allocation pin is only meaningful in a plain build.
const raceEnabled = true
