// Cross-application models: train on LULESH, tune CleverLeaf and ARES.
//
// The paper's Table III shows that Apollo's models are reusable across
// applications: a model trained only on LULESH's kernels predicts good
// execution policies for CleverLeaf and ARES, because the features it
// consumes (iteration counts, instruction mixes, segment structure) are
// application-agnostic. This example trains a policy model exclusively on
// LULESH training data and then installs it — unchanged — as the tuner
// for the other two applications, reporting transfer accuracy and the
// resulting end-to-end speedups over each application's default.
//
// Run with: go run ./examples/crossapp
package main

import (
	"fmt"
	"log"

	"apollo"
	appcfg "apollo/internal/app"
	"apollo/internal/ares"
	"apollo/internal/cleverleaf"
	"apollo/internal/lulesh"
)

func main() {
	schema := apollo.TableISchema()
	machine := apollo.SandyBridgeNode()

	record := func(desc appcfg.Descriptor, problem string, size, steps int) *apollo.Frame {
		var all *apollo.Frame
		for _, pol := range []apollo.Policy{apollo.SeqExec, apollo.OmpParallelForExec} {
			ann := apollo.NewAnnotations()
			rec := apollo.NewRecorder(schema, ann)
			clk := apollo.NewSimClock(machine, 0.05, 21)
			ctx := apollo.NewSimContext(clk, apollo.Params{Policy: pol})
			ctx.Observe = rec.Observe
			sim, err := desc.New(appcfg.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
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
		}
		return all
	}

	// --- Train only on LULESH, across several problem sizes. ---
	ldesc := lulesh.Descriptor()
	var ltrain *apollo.Frame
	for _, size := range []int{8, 16, 24, 32} {
		f := record(ldesc, "sedov", size, 8)
		if ltrain == nil {
			ltrain = f
		} else {
			ltrain.Append(f)
		}
	}
	lset, err := apollo.Label(ltrain, schema, apollo.ExecutionPolicy)
	if err != nil {
		log.Fatal(err)
	}
	model, err := apollo.Train(lset, apollo.TreeConfig{MaxDepth: 15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LULESH-only model trained on %d unique launch configs\n\n", lset.Len())

	// --- Evaluate transfer accuracy and end-to-end speedup. ---
	targets := []struct {
		desc    appcfg.Descriptor
		problem string
		size    int
		steps   int
	}{
		{cleverleaf.Descriptor(), "sedov", 64, 12},
		{cleverleaf.Descriptor(), "triple_pt", 64, 12},
		{ares.Descriptor(), "hotspot", 48, 8},
	}
	fmt.Printf("%-12s %-10s %16s %16s\n", "application", "problem", "transfer acc.", "speedup vs def.")
	for _, tgt := range targets {
		frame := record(tgt.desc, tgt.problem, tgt.size, tgt.steps)
		set, err := apollo.Label(frame, schema, apollo.ExecutionPolicy)
		if err != nil {
			log.Fatal(err)
		}
		acc := model.Evaluate(set)

		run := func(hooks func(ann *apollo.Annotations) apollo.Hooks, def apollo.Params) float64 {
			ann := apollo.NewAnnotations()
			clk := apollo.NewSimClock(machine, 0, 0)
			ctx := apollo.NewSimContext(clk, def)
			ctx.Hooks = hooks(ann)
			sim, err := tgt.desc.New(appcfg.Config{Ctx: ctx, Ann: ann, Problem: tgt.problem, Size: tgt.size})
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < tgt.steps; i++ {
				sim.Step()
			}
			return clk.NowNS()
		}
		def := run(func(*apollo.Annotations) apollo.Hooks {
			if tgt.desc.NewDefaultHooks != nil {
				return tgt.desc.NewDefaultHooks()
			}
			return nil
		}, tgt.desc.DefaultParams)
		tuned := run(func(ann *apollo.Annotations) apollo.Hooks {
			return apollo.NewTuner(schema, ann, tgt.desc.DefaultParams).UsePolicyModel(model)
		}, tgt.desc.DefaultParams)

		fmt.Printf("%-12s %-10s %15.0f%% %15.2fx\n",
			tgt.desc.Name, tgt.problem, acc*100, def/tuned)
	}
	fmt.Println("\nThe same LULESH-trained model file tunes all three codes without retraining.")
}
