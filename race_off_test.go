//go:build !race

package detectable_test

const raceEnabled = false
