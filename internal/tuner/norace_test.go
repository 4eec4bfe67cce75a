//go:build !race

package tuner

const raceEnabled = false
