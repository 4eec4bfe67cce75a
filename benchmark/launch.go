package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/stats"
	"apollo/internal/telemetry"
	"apollo/internal/tuner"
)

// The launch phase: Apollo's cost in situ on the three hydro apps.
//
// Every slice builds a fresh simulation of the deck under
// raja.NewSimContext and advances a fixed number of steps. Under the
// simulated clock the body always runs execSeq, so executed work is the
// same whatever Apollo decides and the wall-clock difference between a
// bare slice (no hooks) and a tuned slice (the stock apollo-tune wiring)
// is Apollo's own cost. Slices run as interleaved pairs with alternating
// order, so host frequency drift cancels in the per-pair ratio.

const (
	exploreEvery  = 8                     // apollo-tune's default exploration cadence
	drainInterval = 50 * time.Millisecond // recorder drain cadence of a tuned slice
	minPairs      = 3
)

type sliceMode int

const (
	sliceBare    sliceMode = iota // ctx.Hooks = nil
	sliceDefault                  // the application's own static defaults
	sliceTuned                    // stock apollo-tune wiring
	sliceTraced                   // sliceTuned behind the span-recording hooks
)

type sliceResult struct {
	wall      time.Duration
	simNS     float64 // SimClock.NowNS(): modeled kernel time under the decisions made
	simTime   float64 // Sim.Time(): the physics answer
	cycle     int
	launches  uint64
	explored  uint64
	ringDrops uint64
	flDrops   uint64
}

// drainLoop empties the telemetry ring on a fixed cadence until ctx is
// cancelled, standing in for apollo-tune's uploader.
func drainLoop(ctx context.Context, rec *telemetry.Recorder, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(drainInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rec.Drain(0)
		}
	}
}

// tunedWiring is the stock apollo-tune stack for one simulation.
type tunedWiring struct {
	ann *caliper.Annotations
	rec *telemetry.Recorder
	fr  *flight.Recorder
	tn  *tuner.Tuner
}

// newTunedWiring builds the stack over the blackboard ann; dual adds the
// chunk model, the two-model form whose flight records carry TrailSteps.
func newTunedWiring(am appModels, ann *caliper.Annotations, dual bool) tunedWiring {
	schema := features.TableI()
	w := tunedWiring{ann: ann}
	w.rec = telemetry.NewRecorder(schema, w.ann, telemetry.Options{SampleEvery: 1})
	w.fr = flight.New(flight.Options{FeatureNames: schema.Names()})
	w.tn = tuner.NewTuner(schema, w.ann, am.desc.DefaultParams).
		UsePolicyModel(am.policy).
		UseTelemetry(w.rec).
		UseFlight(w.fr).
		ExploreEvery(exploreEvery)
	if dual {
		w.tn.UseChunkModel(am.chunk)
	}
	return w
}

// runSlice runs one slice of am's deck. lt receives the spans of a
// sliceTraced run and is nil otherwise.
func runSlice(ctx context.Context, am appModels, seed uint64, mode sliceMode, lt *launchTrace) (sliceResult, error) {
	var res sliceResult
	clk := platform.NewSimClock(platform.SandyBridgeNode(), noiseAmp, seed)
	rctx := raja.NewSimContext(clk, am.desc.DefaultParams)
	ann := caliper.New()
	var w tunedWiring
	switch mode {
	case sliceDefault:
		if am.desc.NewDefaultHooks != nil {
			rctx.Hooks = am.desc.NewDefaultHooks()
		}
	case sliceTuned, sliceTraced:
		w = newTunedWiring(am, ann, false)
		rctx.Hooks = w.tn
		if mode == sliceTraced {
			lt.ann = ann
			rctx.Hooks = &tracedHooks{inner: w.tn, lt: lt}
		}
	}
	sim, err := am.desc.New(app.Config{Ctx: rctx, Ann: ann, Problem: am.deck.Problem, Size: am.deck.Size})
	if err != nil {
		return res, err
	}
	dctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	if w.rec != nil {
		go drainLoop(dctx, w.rec, done)
	} else {
		close(done)
	}
	start := time.Now()
	for i := 0; i < am.deck.Steps; i++ {
		sim.Step()
	}
	res.wall = time.Since(start)
	cancel()
	<-done
	res.simNS, res.simTime, res.cycle = clk.NowNS(), sim.Time(), sim.Cycle()
	if w.tn != nil {
		res.launches = w.tn.Decisions()
		res.explored = w.tn.Explored()
		res.ringDrops = w.rec.Dropped()
		res.flDrops = w.fr.Dropped()
	}
	return res, nil
}

// appLaunch is one application's share of the launch phase.
type appLaunch struct {
	name       string
	ratios     []float64 // per pair: tuned wall / bare wall
	bareNS     []float64 // per pair
	tunedNS    []float64
	tracedNS   []float64 // traced pass only
	launches   uint64    // per slice, exact
	explored   uint64
	ringDrops  uint64
	flDrops    uint64
	simSpeedup float64 // default-run sim time / tuned-run sim time
	trace      *launchTrace
}

// launchPhase runs every deck of the workload for its share of budget
// and returns the per-application results in deck order.
func (r *run) launchPhase(ctx context.Context, models []appModels, budget time.Duration) ([]appLaunch, error) {
	out := make([]appLaunch, 0, len(models))
	for _, am := range models {
		al, err := r.launchApp(ctx, am, budget/time.Duration(len(models)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", am.deck.App, err)
		}
		out = append(out, al)
	}
	return out, nil
}

func (r *run) launchApp(ctx context.Context, am appModels, budget time.Duration) (appLaunch, error) {
	al := appLaunch{name: strings.ToLower(am.deck.App)}
	deadline := time.Now().Add(budget)

	// Decision quality first, on the process's first launches of these
	// kernels after set-up, so the noise draws (keyed by invocation
	// count) and hence sim_speedup repeat exactly for a fixed seed. The
	// two slices double as warm-up.
	def, err := runSlice(ctx, am, r.seed, sliceDefault, nil)
	if err != nil {
		return al, err
	}
	tuned, err := runSlice(ctx, am, r.seed, sliceTuned, nil)
	if err != nil {
		return al, err
	}
	al.simSpeedup = def.simNS / tuned.simNS
	al.launches, al.explored = tuned.launches, tuned.explored
	r.op(tuned.cycle == def.cycle && tuned.simTime == def.simTime,
		"%s: tuned run reached t=%v cycle=%d, default run t=%v cycle=%d",
		am.deck.App, tuned.simTime, tuned.cycle, def.simTime, def.cycle)

	if r.trace {
		al.trace = newLaunchTrace(r.epoch)
	}
	modes := []sliceMode{sliceBare, sliceTuned}
	if r.trace {
		modes = append(modes, sliceTraced)
	}
	for pair := 0; pair < minPairs || time.Now().Before(deadline); pair++ {
		if err := ctx.Err(); err != nil {
			return al, err
		}
		var got [sliceTraced + 1]sliceResult
		for i := range modes {
			// Rotate the order so no mode always runs first.
			mode := modes[(i+pair)%len(modes)]
			runtime.GC()
			if got[mode], err = runSlice(ctx, am, r.seed, mode, al.trace); err != nil {
				return al, err
			}
		}
		bare, tn := got[sliceBare], got[sliceTuned]
		al.ratios = append(al.ratios, float64(tn.wall)/float64(bare.wall))
		al.bareNS = append(al.bareNS, float64(bare.wall))
		al.tunedNS = append(al.tunedNS, float64(tn.wall))
		al.ringDrops += tn.ringDrops
		al.flDrops += tn.flDrops
		r.op(tn.cycle == bare.cycle && tn.simTime == bare.simTime && tn.launches == al.launches,
			"%s pair %d: tuned slice t=%v cycle=%d launches=%d, bare slice t=%v cycle=%d, first slice launches=%d",
			am.deck.App, pair, tn.simTime, tn.cycle, tn.launches, bare.simTime, bare.cycle, al.launches)
		if r.trace {
			al.tracedNS = append(al.tracedNS, float64(got[sliceTraced].wall))
		}
	}
	return al, nil
}

// launchEndToEnd folds the per-application results into the two launch
// metrics: geometric means over the applications.
func launchEndToEnd(apps []appLaunch, m metrics) {
	var ratios, speedups []float64
	pairs := 0
	for _, al := range apps {
		ratios = append(ratios, stats.Median(al.ratios))
		speedups = append(speedups, al.simSpeedup)
		pairs += len(al.ratios)
	}
	m.set("launch_overhead_ratio", stats.GeoMean(ratios), "ratio", pairs)
	m.set("sim_speedup", stats.GeoMean(speedups), "ratio", len(speedups))
}
