// Command apollo-demo runs the full Apollo workflow end to end on one
// application: record training runs (one per execution policy, as the
// paper's training procedure does), train and reduce a decision model,
// write it to disk, reload it, and compare a tuned run against the
// application's default configuration.
//
//	apollo-demo -app CleverLeaf -problem triple_pt -size 64
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/harness"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/trace"
	"apollo/internal/tuner"
)

func main() {
	appName := flag.String("app", "CleverLeaf", "application: LULESH, CleverLeaf, or ARES")
	problem := flag.String("problem", "sedov", "input deck")
	size := flag.Int("size", 64, "global problem size")
	steps := flag.Int("steps", 12, "timesteps per run")
	dir := flag.String("dir", "", "working directory for artifacts (default: temp)")
	traceOut := flag.Bool("trace", false, "write a Chrome trace of the tuned run to <dir>/tuned-trace.json")
	flag.Parse()

	if err := run(*appName, *problem, *size, *steps, *dir, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "apollo-demo:", err)
		os.Exit(1)
	}
}

func run(appName, problem string, size, steps int, dir string, traceOut bool) error {
	desc, err := harness.AppByName(appName)
	if err != nil {
		return err
	}
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "apollo-demo")
		if err != nil {
			return err
		}
		fmt.Printf("artifacts in %s\n", dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	schema := features.TableI()
	machine := platform.SandyBridgeNode()

	// --- 1. Record: one run per execution policy. ---
	fmt.Printf("\n[1/3] recording %s/%s at size %d, %d steps per run\n", appName, problem, size, steps)
	all := dataset.NewFrame(core.RecordColumns(schema)...)
	for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
		ann := caliper.New()
		rec := tuner.NewRecorder(schema, ann)
		clk := platform.NewSimClock(machine, 0.08, 3)
		ctx := raja.NewSimContext(clk, raja.Params{Policy: pol})
		ctx.Observe = rec.Observe
		sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			sim.Step()
		}
		all.Append(rec.Frame())
		fmt.Printf("  %-24s %6d samples\n", pol, rec.Samples())
	}
	csvPath := filepath.Join(dir, "training.csv")
	if err := all.SaveCSV(csvPath); err != nil {
		return err
	}

	// --- 2. Train + reduce + persist. ---
	fmt.Printf("\n[2/3] training the execution-policy model\n")
	set, err := core.Label(all, schema, core.ExecutionPolicy)
	if err != nil {
		return err
	}
	full, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		return err
	}
	model, err := full.Reduce(set, 5, 15, core.TrainConfig{})
	if err != nil {
		return err
	}
	cv, err := core.CrossValidate(set, 10, 1, core.TrainConfig{})
	if err != nil {
		return err
	}
	names, _ := model.FeatureRanking()
	modelPath := filepath.Join(dir, "policy-model.json")
	if err := model.Save(modelPath); err != nil {
		return err
	}
	fmt.Printf("  %d unique launch configs; 10-fold CV accuracy %.0f%%\n", set.Len(), cv.MeanAccuracy*100)
	fmt.Printf("  reduced to features %v, depth %d; saved to %s\n", names, model.Tree.Depth(), modelPath)

	// --- 3. Tune: reload the model and compare against the default. ---
	fmt.Printf("\n[3/3] tuned run vs default\n")
	loaded, err := core.LoadModel(modelPath)
	if err != nil {
		return err
	}
	timed := func(install func(ctx *raja.Context, ann *caliper.Annotations)) (float64, error) {
		ann := caliper.New()
		clk := platform.NewSimClock(machine, 0, 0)
		ctx := raja.NewSimContext(clk, desc.DefaultParams)
		install(ctx, ann)
		sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
		if err != nil {
			return 0, err
		}
		for i := 0; i < steps; i++ {
			sim.Step()
		}
		return clk.NowNS(), nil
	}
	def, err := timed(func(ctx *raja.Context, _ *caliper.Annotations) {
		if desc.NewDefaultHooks != nil {
			ctx.Hooks = desc.NewDefaultHooks()
		}
	})
	if err != nil {
		return err
	}
	var tracer *trace.Tracer
	tuned, err := timed(func(ctx *raja.Context, ann *caliper.Annotations) {
		ctx.Hooks = tuner.NewTuner(schema, ann, desc.DefaultParams).UsePolicyModel(loaded)
		if traceOut {
			tracer = trace.New(0)
			ctx.Observe = tracer.Observe
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("  default: %8.2f ms\n", def/1e6)
	fmt.Printf("  apollo:  %8.2f ms\n", tuned/1e6)
	fmt.Printf("  speedup: %.2fx\n", def/tuned)

	if tracer != nil {
		tracePath := filepath.Join(dir, "tuned-trace.json")
		if err := trace.SaveChromeTrace(tracePath, tracer.Events()); err != nil {
			return err
		}
		fmt.Printf("\nChrome trace of %d launches written to %s\n", tracer.Len(), tracePath)
		fmt.Println("top kernels by total time (seq/par decisions):")
		for i, s := range trace.Summarize(tracer.Events()) {
			if i >= 6 {
				break
			}
			fmt.Printf("  %-36s %8.2fms  %d launches (%d seq / %d par)\n",
				s.Kernel, s.TotalNS/1e6, s.Launches, s.SeqCount, s.ParCount)
		}
	}
	return nil
}
