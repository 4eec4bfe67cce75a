//go:build race

package telemetry

// raceEnabled reports that the race detector is on. Its runtime makes
// sync.Pool.Put drop items at random, so a path that crosses a pool
// allocates a varying count under it; exact AllocsPerRun comparisons on
// such paths hold only without -race (where `go test` keeps them).
const raceEnabled = true
