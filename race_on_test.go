//go:build race

package detectable_test

// Race instrumentation allocates on goroutine spawn and channel hand-off,
// so TestAllocCeilings is only meaningful in a plain build.
const raceEnabled = true
