// AMR patches: tune the CleverLeaf proxy's dynamically sized patches.
//
// This example reproduces the paper's central CleverLeaf story end to
// end: the Sedov blast drives adaptive mesh refinement, the regridding
// algorithm produces patches of widely varying sizes, and the fixed
// OpenMP-everywhere default wastes a parallel-region spawn on every
// small patch and boundary strip. Apollo records one training run per
// execution policy, trains a decision tree, and then tunes every kernel
// launch, choosing sequential execution for the small patches.
//
// Run with: go run ./examples/amrpatches
package main

import (
	"fmt"
	"log"
	"sort"

	"apollo"
	ccapp "apollo/internal/app"
	"apollo/internal/cleverleaf"
)

const (
	problem = "sedov"
	size    = 64
	steps   = 16
)

func main() {
	schema := apollo.TableISchema()
	machine := apollo.SandyBridgeNode()

	// --- Record under each execution policy. ---
	var all *apollo.Frame
	for _, pol := range []apollo.Policy{apollo.SeqExec, apollo.OmpParallelForExec} {
		ann := apollo.NewAnnotations()
		rec := apollo.NewRecorder(schema, ann)
		clk := apollo.NewSimClock(machine, 0.05, 7)
		ctx := apollo.NewSimContext(clk, apollo.Params{Policy: pol})
		ctx.Observe = rec.Observe
		sim, err := cleverleaf.New(ccapp.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			sim.Step()
		}
		if all == nil {
			all = rec.Frame()
		} else {
			all.Append(rec.Frame())
		}
		fmt.Printf("recorded %5d samples under %v (%d AMR patches at end)\n",
			rec.Samples(), pol, sim.Hierarchy().NumPatches())
	}

	// --- Train the policy model. ---
	set, err := apollo.Label(all, schema, apollo.ExecutionPolicy)
	if err != nil {
		log.Fatal(err)
	}
	model, err := apollo.Train(set, apollo.TreeConfig{MaxDepth: 15})
	if err != nil {
		log.Fatal(err)
	}
	cv, err := apollo.CrossValidate(set, 10, 3, apollo.TreeConfig{MaxDepth: 15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npolicy model: %d unique launch configs, 10-fold CV accuracy %.0f%%\n",
		set.Len(), cv.MeanAccuracy*100)

	// --- Compare default OpenMP-everywhere against Apollo. ---
	runWith := func(hooks func(ann *apollo.Annotations) apollo.Hooks, def apollo.Params) (float64, []apollo.TraceSummary) {
		ann := apollo.NewAnnotations()
		clk := apollo.NewSimClock(machine, 0, 0)
		ctx := apollo.NewSimContext(clk, def)
		tr := apollo.NewTracer(0)
		ctx.Hooks, ctx.Observe = hooks(ann), tr.Observe
		sim, err := cleverleaf.New(ccapp.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			sim.Step()
		}
		return clk.NowNS(), apollo.SummarizeTrace(tr.Events())
	}

	defTime, defStats := runWith(
		func(*apollo.Annotations) apollo.Hooks { return nil },
		apollo.Params{Policy: apollo.OmpParallelForExec})
	tunedTime, tunedStats := runWith(
		func(ann *apollo.Annotations) apollo.Hooks {
			return apollo.NewTuner(schema, ann, apollo.Params{}).UsePolicyModel(model)
		},
		apollo.Params{})

	fmt.Printf("\nstatic OpenMP everywhere: %7.2f ms\n", defTime/1e6)
	fmt.Printf("Apollo dynamic tuning:    %7.2f ms  (speedup %.2fx)\n\n",
		tunedTime/1e6, defTime/tunedTime)

	// --- Per-kernel breakdown: where did the time go? ---
	type row struct {
		name     string
		def, tun float64
	}
	tuned := map[string]float64{}
	for _, s := range tunedStats {
		tuned[s.Kernel] = s.TotalNS
	}
	var rows []row
	for _, s := range defStats {
		rows = append(rows, row{s.Kernel, s.TotalNS, tuned[s.Kernel]})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].def-rows[i].tun > rows[j].def-rows[j].tun
	})
	fmt.Println("top kernels by absolute improvement:")
	fmt.Printf("%-36s %10s %10s %8s\n", "kernel", "default", "apollo", "speedup")
	for i, r := range rows {
		if i >= 8 {
			break
		}
		fmt.Printf("%-36s %8.2fms %8.2fms %7.2fx\n",
			r.name, r.def/1e6, r.tun/1e6, r.def/r.tun)
	}
}
