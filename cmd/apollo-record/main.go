// Command apollo-record runs one of the proxy applications in recording
// mode and writes the training samples to a CSV file, one row per kernel
// launch with the Table I features, the parameters used, and the runtime.
//
// A full training sweep records one run per candidate parameter value:
//
//	apollo-record -app CleverLeaf -problem sedov -size 64 -policy seq_exec -out seq.csv
//	apollo-record -app CleverLeaf -problem sedov -size 64 -policy omp_parallel_for_exec -out omp.csv
//
// or, with -sweep, synthesizes the whole variant grid from the machine
// model in a single pass (see internal/harness.SweepRecorder).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/harness"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/tuner"
)

func main() {
	appName := flag.String("app", "CleverLeaf", "application: LULESH, CleverLeaf, or ARES")
	problem := flag.String("problem", "sedov", "input deck")
	size := flag.Int("size", 64, "global problem size")
	steps := flag.Int("steps", 10, "timesteps to run")
	policy := flag.String("policy", "seq_exec", "execution policy to force (seq_exec or omp_parallel_for_exec)")
	chunk := flag.Int("chunk", 0, "schedule chunk size to force (0 = default)")
	sweep := flag.Bool("sweep", false, "record every variant of the training grid in one pass")
	noise := flag.Float64("noise", 0.08, "measurement noise amplitude")
	seed := flag.Uint64("seed", 1, "noise seed")
	out := flag.String("out", "samples.csv", "output CSV path")
	flag.Parse()

	if err := run(*appName, *problem, *size, *steps, *policy, *chunk, *sweep, *noise, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "apollo-record:", err)
		os.Exit(1)
	}
}

func run(appName, problem string, size, steps int, policy string, chunk int, sweep bool, noise float64, seed uint64, out string) error {
	desc, err := harness.AppByName(appName)
	if err != nil {
		return err
	}
	schema := features.TableI()
	ann := caliper.New()
	machine := platform.SandyBridgeNode()
	clk := platform.NewSimClock(machine, noise, seed)
	ctx := raja.NewSimContext(clk, desc.DefaultParams)

	var frame func() *dataset.Frame
	if sweep {
		rec := harness.NewSweepRecorder(schema, ann, machine, noise, seed)
		ctx.Hooks = rec
		frame = rec.Frame
	} else {
		pol, ok := raja.PolicyByName(policy)
		if !ok {
			return fmt.Errorf("unknown policy %q", policy)
		}
		rec := tuner.NewRecorder(schema, ann, raja.Params{Policy: pol, Chunk: chunk})
		ctx.Hooks = rec
		frame = rec.Frame
	}

	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
	if err != nil {
		return err
	}
	for i := 0; i < steps; i++ {
		sim.Step()
	}
	f := frame()
	if strings.HasSuffix(out, ".jsonl") {
		err = f.SaveJSONL(out)
	} else {
		err = f.SaveCSV(out)
	}
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d samples from %s/%s size %d (%d steps) -> %s\n",
		f.Len(), appName, problem, size, steps, out)
	return nil
}
