//go:build race

package tuner

// raceEnabled reports that the race detector is on. Its runtime makes
// sync.Pool.Put drop items at random, so an allocation-free path that
// crosses a pool re-allocates under it; AllocsPerRun == 0 assertions on
// such paths hold only without -race (where `go test` and apollo-vet's
// hotpath analyzer keep the guarantee).
const raceEnabled = true
