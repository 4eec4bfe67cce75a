//go:build !race

package apollo_test

const raceEnabled = false
