// Kokkos port: the same Apollo models tune a second portability
// framework.
//
// The paper closes by noting that "the techniques for separating the
// concerns of implementation and tuning are general, and we plan to apply
// these techniques to other performance portability frameworks." This
// example demonstrates that generality: a stencil mini-app written
// against the Kokkos-style frontend (internal/kokkos — ParallelFor,
// ParallelReduce, MDRangePolicy) is tuned by a model trained from
// RAJA-frontend recordings, with no retraining, because both frontends
// emit identical Table I feature vectors.
//
// Run with: go run ./examples/kokkosport
package main

import (
	"fmt"
	"log"

	"apollo"
	"apollo/internal/kokkos"
	"apollo/internal/raja"
)

// stencilMix describes the 5-point stencil body.
var stencilMix = apollo.NewMix().
	With(apollo.OpMovsd, 6).With(apollo.OpAdd, 4).With(apollo.OpMulpd, 2)

// patchSizes is the input-dependent workload: an AMR-like patch
// population — hundreds of small patches plus a few large ones.
var patchSizes = buildPatches()

func buildPatches() [][2]int {
	var out [][2]int
	small := [][2]int{{8, 8}, {12, 10}, {16, 8}, {10, 12}, {14, 14}, {16, 16}, {12, 8}, {8, 10}}
	for rep := 0; rep < 40; rep++ {
		out = append(out, small[rep%len(small)])
	}
	out = append(out, [2]int{640, 512}, [2]int{768, 640}, [2]int{512, 512})
	return out
}

func main() {
	schema := apollo.TableISchema()
	ann := apollo.NewAnnotations()
	machine := apollo.SandyBridgeNode()

	// --- Train from the RAJA frontend (as the applications do). ---
	trainKernel := apollo.NewKernel("kokkosport::train", stencilMix.Clone())
	var all *apollo.Frame
	for _, pol := range []apollo.Policy{apollo.SeqExec, apollo.OmpParallelForExec} {
		rec := apollo.NewRecorder(schema, ann)
		clk := apollo.NewSimClock(machine, 0.05, 9)
		ctx := apollo.NewSimContext(clk, apollo.Params{Policy: pol})
		ctx.Observe = rec.Observe
		for n := 32; n <= 1<<20; n *= 4 {
			apollo.ForAll(ctx, trainKernel, apollo.NewRange(0, n), func(int) {})
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
	fmt.Println("policy model trained from RAJA-frontend recordings")

	// --- Deploy against the Kokkos frontend. ---
	runStencil := func(hooks apollo.Hooks, space kokkos.ExecSpace) float64 {
		clk := apollo.NewSimClock(machine, 0, 0)
		ctx := apollo.NewSimContext(clk, apollo.Params{})
		ctx.Hooks = hooks
		for _, sz := range patchSizes {
			nx, ny := sz[0], sz[1]
			grid := make([]float64, nx*ny)
			kokkos.ParallelForMD(ctx, "kokkosport::stencil", stencilMix.Clone(),
				kokkos.MDRangePolicy{Space: space, End0: ny, End1: nx},
				func(j, i int) {
					c := grid[j*nx+i]
					grid[j*nx+i] = 0.5*c + 0.125*float64(i+j)
				})
			sum, _ := kokkos.ParallelReduce(ctx, "kokkosport::norm", stencilMix.Clone(),
				kokkos.RangePolicy{Space: space, End: nx * ny},
				func(k int) float64 { return grid[k] * grid[k] })
			_ = sum
		}
		return clk.NowNS()
	}

	serial := runStencil(nil, kokkos.Serial)
	parallel := runStencil(nil, kokkos.OpenMP)
	tuned := runStencil(
		apollo.NewTuner(schema, ann, apollo.Params{}).UsePolicyModel(model),
		kokkos.DefaultExecSpace)

	fmt.Printf("\n%-34s %10s\n", "execution space", "total")
	fmt.Printf("%-34s %8.2fms\n", "Kokkos Serial everywhere", serial/1e6)
	fmt.Printf("%-34s %8.2fms\n", "Kokkos OpenMP everywhere", parallel/1e6)
	fmt.Printf("%-34s %8.2fms  (%.2fx vs best static)\n",
		"DefaultExecSpace + Apollo", tuned/1e6, minf(serial, parallel)/tuned)

	fmt.Printf("\n%d Kokkos kernel sites registered through the shared tuning core\n",
		len(kokkos.Kernels()))
	_ = raja.NumPolicies // both frontends share the same policy space
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
