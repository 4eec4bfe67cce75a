// Online search vs Apollo: why pre-trained models beat run-time search
// on input-dependent code.
//
// The paper's key argument against empirical on-line tuners
// (ActiveHarmony-style) is twofold: they must execute every candidate —
// paying for the slow ones — and they converge per kernel, so they
// cannot follow inputs that change from launch to launch. This example
// drives one kernel through three workload phases (small launches, large
// launches, then rapidly alternating sizes) and compares four tuners:
// the static default, the empirical on-line searcher, Apollo's
// classifier, and the per-launch oracle.
//
// Run with: go run ./examples/onlinesearch
package main

import (
	"fmt"
	"log"

	"apollo"
	"apollo/internal/search"
)

func workload() []int {
	var sizes []int
	for i := 0; i < 250; i++ { // phase 1: small patches
		sizes = append(sizes, 64+i)
	}
	for i := 0; i < 40; i++ { // phase 2: large patches
		sizes = append(sizes, 120000+1000*i)
	}
	for i := 0; i < 360; i++ { // phase 3: alternating per launch
		if i%3 != 0 {
			sizes = append(sizes, 96+i)
		} else {
			sizes = append(sizes, 150000+500*i)
		}
	}
	return sizes
}

func main() {
	schema := apollo.TableISchema()
	machine := apollo.SandyBridgeNode()
	mix := apollo.NewMix().
		With(apollo.OpMovsd, 6).With(apollo.OpMulpd, 4).With(apollo.OpAdd, 4)
	sizes := workload()

	// Train Apollo's model on a short generic sweep (not the test
	// workload): sizes spanning the crossover.
	kTrain := apollo.NewKernel("search-demo::train", mix)
	var all *apollo.Frame
	for _, pol := range []apollo.Policy{apollo.SeqExec, apollo.OmpParallelForExec} {
		ann := apollo.NewAnnotations()
		rec := apollo.NewRecorder(schema, ann)
		clk := apollo.NewSimClock(machine, 0.05, 5)
		ctx := apollo.NewSimContext(clk, apollo.Params{Policy: pol})
		ctx.Observe = rec.Observe
		for n := 32; n <= 1<<20; n *= 2 {
			apollo.ForAll(ctx, kTrain, apollo.NewRange(0, n), func(int) {})
		}
		if all == nil {
			all = rec.Frame()
		} else {
			all.Append(rec.Frame())
		}
	}
	set, err := apollo.Label(all, schema, apollo.ExecutionPolicy)
	if err != nil {
		log.Fatal(err)
	}
	model, err := apollo.Train(set, apollo.TreeConfig{})
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, hooks func(ann *apollo.Annotations) apollo.Hooks, def apollo.Params) float64 {
		ann := apollo.NewAnnotations()
		clk := apollo.NewSimClock(machine, 0, 0)
		ctx := apollo.NewSimContext(clk, def)
		ctx.Hooks = hooks(ann)
		k := apollo.NewKernel("search-demo::"+label, mix)
		for _, n := range sizes {
			apollo.ForAll(ctx, k, apollo.NewRange(0, n), func(int) {})
		}
		return clk.NowNS()
	}

	static := run("static", func(*apollo.Annotations) apollo.Hooks { return nil },
		apollo.Params{Policy: apollo.OmpParallelForExec})
	searched := run("searched", func(*apollo.Annotations) apollo.Hooks {
		return search.New(search.Config{TrialsPerCandidate: 2, ReexploreEvery: 25})
	}, apollo.Params{})
	tuned := run("tuned", func(ann *apollo.Annotations) apollo.Hooks {
		return apollo.NewTuner(schema, ann, apollo.Params{}).UsePolicyModel(model)
	}, apollo.Params{})

	// Oracle: the best policy per launch, computed from the model-free
	// machine timings.
	var oracle float64
	for _, n := range sizes {
		seq := machine.SeqTimeNS(mix, n)
		omp := machine.OMPTimeNS(mix, n, 0)
		if seq < omp {
			oracle += seq
		} else {
			oracle += omp
		}
	}

	fmt.Printf("workload: %d launches across three input phases\n\n", len(sizes))
	fmt.Printf("%-28s %10s %12s\n", "tuner", "total", "vs oracle")
	for _, row := range []struct {
		name string
		ns   float64
	}{
		{"static OpenMP everywhere", static},
		{"on-line empirical search", searched},
		{"Apollo classifier", tuned},
		{"oracle (per-launch best)", oracle},
	} {
		fmt.Printf("%-28s %8.2fms %11.2fx\n", row.name, row.ns/1e6, row.ns/oracle)
	}
	fmt.Println("\nThe searcher converges per kernel, so it cannot follow the per-launch")
	fmt.Println("alternation of phase 3; Apollo decides per launch from the features.")
}
