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
	m, _ := deployedFit(t, deckSweep(t, desc, d, seed), core.ExecutionPolicy)
	return m
}

// deckSweep is the training frame deckModel fits.
func deckSweep(t *testing.T, desc app.Descriptor, d qualityDeck, seed uint64) *dataset.Frame {
	t.Helper()
	frame := sweepDeck(t, desc, d.problem, d.size, min(d.steps, qualityTrainSteps), seed)
	if small := desc.TrainSizes[0]; small != d.size {
		frame.Append(sweepDeck(t, desc, d.problem, small, qualityTrainSteps, seed))
	}
	return frame
}

// deployedFit labels frame for param, fits it, and reduces the fit to its
// top 5 features at depth 15; it returns the full fit as well.
func deployedFit(t *testing.T, frame *dataset.Frame, param core.Parameter) (deployed, full *core.Model) {
	t.Helper()
	set, err := core.Label(frame, features.TableI(), param)
	if err != nil {
		t.Fatal(err)
	}
	full, err = core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	deployed, err = full.Reduce(set, 5, 15, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return deployed, full
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

// qualityGroups are the benchmark's two workloads' decks.
var qualityGroups = []struct {
	name       string
	minGeoMean float64 // of default ÷ tuned simulated time over the group
	decks      []qualityDeck
}{
	{"small", 2.5, []qualityDeck{{"LULESH", "sedov", 8, 450}, {"CleverLeaf", "triple_pt", 16, 40}, {"ARES", "hotspot", 16, 30}}},
	{"large", 1.05, []qualityDeck{{"LULESH", "sedov", 64, 2}, {"CleverLeaf", "sod", 256, 1}, {"ARES", "sedov", 128, 4}}},
}

func TestTunedNeverLosesToDefaults(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the six benchmark decks three times on each of two seeds, on one goroutine")
	}
	groups := qualityGroups
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

// planCheck decides through a tuner and checks every decision against the
// path the tuner's compiled site plan replaces: the launch's full Table I
// vector (Schema.ExtractInto) through each installed projector
// (Projector.Predict). Every swapEvery launches it stores the other of two
// projector sets into the tuner's source: a hot swap mid-run.
type planCheck struct {
	t         *testing.T
	tn        *tuner.Tuner
	src       *tuner.SwapSource
	sets      [2]*tuner.Projectors
	schema    *features.Schema
	ann       *caliper.Annotations
	base      raja.Params
	x         []float64
	swapEvery int
	launches  int
	swaps     int
	states    map[caliper.State]bool
}

func (c *planCheck) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	if c.launches++; c.launches%c.swapEvery == 0 {
		c.swaps++
		c.src.Store(c.sets[c.swaps%2])
	}
	c.states[c.ann.State()] = true
	got, ok := c.tn.Begin(k, iset)
	want, ps := c.base, c.src.Projectors()
	x := c.schema.ExtractInto(c.x, k, iset, c.ann)
	if ps.Policy != nil {
		want.Policy = raja.Policy(ps.Policy.Predict(x))
	}
	if ps.Chunk != nil {
		if class := ps.Chunk.Predict(x); class >= 0 && class < len(raja.ChunkSizes) {
			want.Chunk = raja.ChunkSizes[class]
		}
	}
	if got != want && !c.t.Failed() {
		c.t.Errorf("launch %d of %s (%d iterations): the site plan decided %v, extract + predict %v", c.launches, k.Name, iset.Len(), got, want)
	}
	return got, ok
}

func (c *planCheck) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	c.tn.End(k, iset, p, elapsedNS)
}

// TestSitePlanMatchesExtractAndPredict: on every launch of the six
// benchmark decks, the classes Tuner.Begin's compiled site plan picks equal
// those of the full extraction through the installed projectors — the
// deployed policy model alone, then the full policy fit with the deployed
// chunk model, swapped back and forth mid-run, while the application
// republishes its blackboard.
func TestSitePlanMatchesExtractAndPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the six benchmark decks")
	}
	for _, g := range qualityGroups {
		for _, d := range g.decks {
			desc := descFor(t, d.app)
			frame := deckSweep(t, desc, d, 1)
			policy, fullPolicy := deployedFit(t, frame, core.ExecutionPolicy)
			chunk, _ := deployedFit(t, frame, core.ChunkSize)
			schema, ann := features.TableI(), caliper.New()
			c := &planCheck{
				t: t, src: &tuner.SwapSource{}, schema: schema, ann: ann, base: desc.DefaultParams,
				x: make([]float64, schema.Len()), swapEvery: 37, states: map[caliper.State]bool{},
				sets: [2]*tuner.Projectors{
					{Policy: policy.NewProjector(schema)},
					{Policy: fullPolicy.NewProjector(schema), Chunk: chunk.NewProjector(schema)},
				},
			}
			c.src.Store(c.sets[0])
			c.tn = tuner.NewTuner(schema, ann, desc.DefaultParams).UseSource(c.src)
			ctx := raja.NewSimContext(platform.NewSimClock(platform.SandyBridgeNode(), qualityNoise, 1), desc.DefaultParams)
			ctx.Hooks = c
			sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: d.problem, Size: d.size})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < d.steps; i++ {
				sim.Step()
			}
			t.Logf("%s %s %d: %d launches, %d swaps, %d blackboard states", d.app, d.problem, d.size, c.launches, c.swaps, len(c.states))
			if c.swaps < 2 || len(c.states) < 2 {
				t.Errorf("%s %s %d: %d swaps, %d blackboard states: the run did not exercise a swap and a republish", d.app, d.problem, d.size, c.swaps, len(c.states))
			}
		}
	}
}

// TestThinnedTelemetryTrainsTheSameModel is the quality oracle for the
// tuner's row cadence: each deck's tuned run is captured twice — every
// launch through Context.Observe into a full recorder, and the tuner's own
// thinned, weighted telemetry rows — and a model fitted to the thinned
// stream must pick what one fitted to the full stream picks on at least
// 99% of the run's launches, and its picks must cost the same simulated
// time to 0.5%. Both models are judged on the captured launches through the
// machine model, noise-free: a second run of a deck would get fresh kernel
// IDs, which key both the loop_id feature and the simulated clock's noise.
func TestThinnedTelemetryTrainsTheSameModel(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the six benchmark decks, on one goroutine")
	}
	machine := platform.SandyBridgeNode()
	type launch struct {
		k     *raja.Kernel
		iters int
	}
	compared := 0
	for _, seed := range []uint64{1, 2} {
		for _, d := range append(qualityGroups[0].decks, qualityGroups[1].decks...) {
			desc := descFor(t, d.app)
			schema, ann := features.TableI(), caliper.New()
			rec := telemetry.NewRecorder(schema, ann, telemetry.Options{Capacity: 1 << 16})
			full := tuner.NewRecorder(schema, ann)
			var ran []launch
			ctx := raja.NewSimContext(platform.NewSimClock(machine, qualityNoise, seed), desc.DefaultParams)
			ctx.Hooks = tuner.NewTuner(schema, ann, desc.DefaultParams).
				UsePolicyModel(deckModel(t, desc, d, seed)).
				UseTelemetry(rec).
				UseFlight(flight.New(flight.Options{FeatureNames: schema.Names()})).
				ExploreEvery(8)
			ctx.Observe = func(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
				full.Observe(k, iset, p, elapsedNS)
				ran = append(ran, launch{k, iset.Len()})
			}
			sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: d.problem, Size: d.size})
			if err != nil {
				t.Fatal(err)
			}
			thin := dataset.NewFrame(append(core.RecordColumns(schema), core.ColWeight)...)
			for i := 0; i < d.steps; i++ {
				sim.Step()
				if f := rec.Drain(0); f != nil {
					thin.Append(f)
				}
			}
			launches := full.Frame()
			if rec.Dropped() != 0 {
				t.Fatalf("%s %d: %d rows dropped", d.app, d.size, rec.Dropped())
			}
			_, fullErr := core.Label(launches, schema, core.ExecutionPolicy)
			_, thinErr := core.Label(thin, schema, core.ExecutionPolicy)
			if fullErr != nil || thinErr != nil {
				// A run that explored nothing labels nothing from either stream.
				if (fullErr == nil) != (thinErr == nil) {
					t.Errorf("seed %d %s %d: labelling the full stream: %v; the thinned one: %v", seed, d.app, d.size, fullErr, thinErr)
				}
				t.Logf("seed %d %s %s %d: %d launches, %d rows kept, nothing to label", seed, d.app, d.problem, d.size, launches.Len(), thin.Len())
				continue
			}
			fromFull, _ := deployedFit(t, launches, core.ExecutionPolicy)
			fromThin, _ := deployedFit(t, thin, core.ExecutionPolicy)
			a, b := fromFull.NewProjector(schema), fromThin.NewProjector(schema)
			agree := 0
			var simFull, simThin float64
			for i, l := range ran {
				x := launches.Row(i)[:schema.Len()]
				pa, pb := raja.Policy(a.Predict(x)), raja.Policy(b.Predict(x))
				if pa == pb {
					agree++
				}
				simFull += machine.KernelTimeNS(l.k.Mix, l.iters, pa.Parallel(), desc.DefaultParams.Chunk)
				simThin += machine.KernelTimeNS(l.k.Mix, l.iters, pb.Parallel(), desc.DefaultParams.Chunk)
			}
			share := float64(agree) / float64(len(ran))
			t.Logf("seed %d %s %s %d: %d launches, %d rows kept; the two models agree on %.4f of launches, simulated time thinned/full %.5f",
				seed, d.app, d.problem, d.size, len(ran), thin.Len(), share, simThin/simFull)
			if share < 0.99 {
				t.Errorf("seed %d %s %d: the thinned stream's model agrees with the full stream's on %.4f of launches, want >= 0.99", seed, d.app, d.size, share)
			}
			if math.Abs(simThin/simFull-1) > 0.005 {
				t.Errorf("seed %d %s %d: the thinned stream's model's picks take %.5f x the full stream's simulated time, want within 0.5%%", seed, d.app, d.size, simThin/simFull)
			}
			compared++
		}
	}
	if compared < 6 {
		t.Errorf("only %d decks had a labelled window to compare", compared)
	}
}
