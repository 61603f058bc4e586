//go:build !race

package durable

const raceEnabled = false
