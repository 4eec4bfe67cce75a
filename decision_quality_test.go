package apollo_test

// Decision quality, kept: under the stock apollo-tune wiring a tuned run
// of each benchmark deck must not lose to the application's static
// defaults in simulated time. This is what the repository benchmark
// reports as sim_speedup; the decks, the training recipe and the noise
// amplitude below are benchmark/spec.go's and benchmark/setup.go's (a
// separate module, so restated here, not imported).

import (
	"math"
	"testing"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/harness"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/stats"
	"apollo/internal/telemetry"
	"apollo/internal/tuner"
)

type qualityDeck struct {
	app, problem string
	size, steps  int
}

const (
	qualityNoise      = 0.05
	qualityTrainSteps = 3
)

// sweepDeck records one training sweep of a deck, as benchmark/setup.go's
// recordSweep does.
func sweepDeck(t *testing.T, desc app.Descriptor, problem string, size, steps int, seed uint64) *dataset.Frame {
	t.Helper()
	machine, ann := platform.SandyBridgeNode(), caliper.New()
	rec := harness.NewSweepRecorder(features.TableI(), ann, machine, qualityNoise, seed)
	ctx := raja.NewSimContext(platform.NewSimClock(machine, 0, 0), desc.DefaultParams)
	ctx.Hooks = rec
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		sim.Step()
	}
	return rec.Frame()
}

// deckModel trains the deck's launch model the way the benchmark's set-up
// does: a three-step sweep of the deck plus one of the application's
// smallest training size, full fit, then top 5 features at depth 15.
func deckModel(t *testing.T, desc app.Descriptor, d qualityDeck, seed uint64) *core.Model {
	t.Helper()
	frame := sweepDeck(t, desc, d.problem, d.size, min(d.steps, qualityTrainSteps), seed)
	if small := desc.TrainSizes[0]; small != d.size {
		frame.Append(sweepDeck(t, desc, d.problem, small, qualityTrainSteps, seed))
	}
	set, err := core.Label(frame, features.TableI(), core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := full.Reduce(set, 5, 15, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

type qualityRun struct {
	simNS, simTime float64
	cycle          int
	explored       uint64
}

// runDeck advances the deck under the stock apollo-tune wiring around
// model at the given exploration cadence, or, with a nil model, under the
// application's static defaults.
func runDeck(t *testing.T, desc app.Descriptor, d qualityDeck, seed uint64, model *core.Model, exploreEvery uint64) qualityRun {
	t.Helper()
	clk := platform.NewSimClock(platform.SandyBridgeNode(), qualityNoise, seed)
	ctx := raja.NewSimContext(clk, desc.DefaultParams)
	ann := caliper.New()
	var tn *tuner.Tuner
	if model != nil {
		schema := features.TableI()
		tn = tuner.NewTuner(schema, ann, desc.DefaultParams).
			UsePolicyModel(model).
			UseTelemetry(telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1})).
			UseFlight(flight.New(flight.Options{FeatureNames: schema.Names()})).
			ExploreEvery(exploreEvery)
		ctx.Hooks = tn
	} else if desc.NewDefaultHooks != nil {
		ctx.Hooks = desc.NewDefaultHooks()
	}
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: d.problem, Size: d.size})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.steps; i++ {
		sim.Step()
	}
	out := qualityRun{simNS: clk.NowNS(), simTime: sim.Time(), cycle: sim.Cycle()}
	if tn != nil {
		out.explored = tn.Explored()
	}
	return out
}

func TestTunedNeverLosesToDefaults(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the six benchmark decks three times on each of two seeds, on one goroutine")
	}
	groups := []struct {
		name       string
		minGeoMean float64 // of default ÷ tuned simulated time over the group
		decks      []qualityDeck
	}{
		{"small", 2.5, []qualityDeck{{"LULESH", "sedov", 8, 450}, {"CleverLeaf", "triple_pt", 16, 40}, {"ARES", "hotspot", 16, 30}}},
		{"large", 1.05, []qualityDeck{{"LULESH", "sedov", 64, 2}, {"CleverLeaf", "sod", 256, 1}, {"ARES", "sedov", 128, 4}}},
	}
	for _, seed := range []uint64{1, 2} {
		for _, g := range groups {
			var speedups []float64
			for _, d := range g.decks {
				desc := descFor(t, d.app)
				model := deckModel(t, desc, d, seed)
				def := runDeck(t, desc, d, seed, nil, 0)
				tuned := runDeck(t, desc, d, seed, model, 8)
				blind := runDeck(t, desc, d, seed, model, 0)
				t.Logf("seed %d %s %s %d: default/tuned %.3f, tuned/unexplored %.3f, %d launches explored",
					seed, d.app, d.problem, d.size, def.simNS/tuned.simNS, tuned.simNS/blind.simNS, tuned.explored)
				if tuned.simTime != def.simTime || tuned.cycle != def.cycle {
					t.Errorf("seed %d %s %d: tuned run reached t=%v cycle=%d, default run t=%v cycle=%d",
						seed, d.app, d.size, tuned.simTime, tuned.cycle, def.simTime, def.cycle)
				}
				if tuned.simNS > 1.03*def.simNS {
					t.Errorf("seed %d %s %d: tuned run took %.3f x the static defaults' simulated time, want <= 1.03",
						seed, d.app, d.size, tuned.simNS/def.simNS)
				}
				if tuned.simNS > 1.05*blind.simNS {
					t.Errorf("seed %d %s %d: exploration cost %.3f x the same wiring at ExploreEvery(0), want <= 1.05",
						seed, d.app, d.size, tuned.simNS/blind.simNS)
				}
				speedups = append(speedups, def.simNS/tuned.simNS)
			}
			if gm := stats.GeoMean(speedups); gm < g.minGeoMean || math.IsNaN(gm) {
				t.Errorf("seed %d: %s decks run %.3f x faster tuned than at the defaults (geometric mean), want >= %g",
					seed, g.name, gm, g.minGeoMean)
			}
		}
	}
}
