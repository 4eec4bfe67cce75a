//go:build race

package apollo_test

// raceEnabled reports that the race detector is on: single-goroutine
// simulation tests that take seconds without it take a minute under it
// and give it nothing to find.
const raceEnabled = true
