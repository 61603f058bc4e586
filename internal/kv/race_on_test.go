//go:build race

package kv

// Race instrumentation allocates a few objects of its own, so pins on exact
// byte counts are only meaningful in a plain build.
const raceEnabled = true
