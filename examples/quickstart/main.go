// Quickstart: the complete Apollo workflow on one synthetic kernel.
//
// The example mirrors Fig. 3 of the paper on a single input-dependent
// kernel: (1) training runs record a feature vector and runtime per
// launch, once per execution policy; (2) the recorded samples are labeled
// with the fastest variant and a decision tree is trained; (3) the model
// is saved to JSON, reloaded, and installed as a runtime tuner, which
// picks sequential execution for small launches and parallel execution
// for large ones — beating both static choices.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"apollo"
)

// launchSizes is an input-dependent workload: many tiny launches and a
// few huge ones, as an AMR code's patch population produces.
var launchSizes = buildWorkload()

func buildWorkload() []int {
	var sizes []int
	small := []int{32, 48, 64, 96, 128, 256, 512, 1024, 2048}
	for rep := 0; rep < 300; rep++ {
		sizes = append(sizes, small[rep%len(small)]+rep)
	}
	sizes = append(sizes, 100000, 250000, 500000, 1000000, 150000, 800000)
	return sizes
}

func main() {
	schema := apollo.TableISchema()
	ann := apollo.NewAnnotations()
	machine := apollo.SandyBridgeNode()
	clk := apollo.NewSimClock(machine, 0.05, 42)

	kernel := apollo.NewKernel("quickstart::axpy", apollo.NewMix().
		With(apollo.OpMovsd, 3).With(apollo.OpMulpd, 1).With(apollo.OpAdd, 1))

	runAll := func(ctx *apollo.Context) {
		for _, n := range launchSizes {
			apollo.ForAll(ctx, kernel, apollo.NewRange(0, n), func(i int) {})
		}
	}

	// --- 1. Record: one training run per execution policy. ---
	var all *apollo.Frame
	for _, pol := range []apollo.Policy{apollo.SeqExec, apollo.OmpParallelForExec} {
		rec := apollo.NewRecorder(schema, ann)
		ctx := apollo.NewSimContext(clk, apollo.Params{Policy: pol})
		ctx.Observe = rec.Observe
		runAll(ctx)
		if all == nil {
			all = rec.Frame()
		} else {
			all.Append(rec.Frame())
		}
		fmt.Printf("recorded %2d samples under %v\n", rec.Samples(), pol)
	}

	// --- 2. Train: label fastest variants, fit a decision tree. ---
	set, err := apollo.Label(all, schema, apollo.ExecutionPolicy)
	if err != nil {
		log.Fatal(err)
	}
	model, err := apollo.Train(set, apollo.TreeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	cv, err := apollo.CrossValidate(set, 5, 1, apollo.TreeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrained on %d unique launch configs; 5-fold CV accuracy %.0f%%\n",
		set.Len(), cv.MeanAccuracy*100)
	fmt.Println("\ndecision model:")
	fmt.Println(model.Tree.String())

	// --- 3. Deploy: save, reload, and tune. ---
	dir, err := os.MkdirTemp("", "apollo-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "policy-model.json")
	if err := model.Save(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := apollo.LoadModel(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model saved to and reloaded from %s\n\n", path)

	timeWith := func(hooks apollo.Hooks, def apollo.Params) float64 {
		c := apollo.NewSimClock(machine, 0, 0)
		ctx := apollo.NewSimContext(c, def)
		ctx.Hooks = hooks
		runAll(ctx)
		return c.NowNS()
	}
	seqTime := timeWith(nil, apollo.Params{Policy: apollo.SeqExec})
	ompTime := timeWith(nil, apollo.Params{Policy: apollo.OmpParallelForExec})
	tuned := timeWith(
		apollo.NewTuner(schema, ann, apollo.Params{}).UsePolicyModel(loaded),
		apollo.Params{})

	fmt.Printf("always sequential: %8.2f ms\n", seqTime/1e6)
	fmt.Printf("always parallel:   %8.2f ms\n", ompTime/1e6)
	fmt.Printf("Apollo tuned:      %8.2f ms  (%.2fx vs best static)\n",
		tuned/1e6, minf(seqTime, ompTime)/tuned)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
