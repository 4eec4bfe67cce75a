package apollo_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
// decision cost as a function of tree depth and feature count (the
// paper's model-reduction rationale, Section IV-B), worker-team fork/join
// cost versus team size (the overhead the machine model calibrates), and
// the harness's ablation experiments themselves.

import (
	"fmt"
	"testing"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/team"
	"apollo/internal/tuner"
)

// deepModelData builds a noisy multi-threshold dataset that induces deep
// trees, over the full Table I schema.
func deepModelData(b *testing.B, n int) (*core.LabeledSet, *features.Schema) {
	b.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	rng := dataset.NewRNG(17)
	ni := schema.Index(features.NumIndices)
	fs := schema.Index(features.FuncSize)
	ts := schema.Index(features.Timestep)
	for i := 0; i < n; i++ {
		iters := float64(rng.Intn(1 << 18))
		size := float64(rng.Intn(100) + 5)
		step := float64(rng.Intn(50))
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni], row[fs], row[ts] = iters, size, step
			row[schema.Len()] = float64(pol)
			noise := 0.9 + 0.2*rng.Float64()
			if pol == raja.SeqExec {
				row[schema.Len()+2] = iters * size * 0.2 * noise
			} else {
				row[schema.Len()+2] = (7000 + iters*size*0.2/16) * noise
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		b.Fatal(err)
	}
	return set, schema
}

// BenchmarkAblationPredictByDepth measures decision cost at the depth
// caps of Fig. 10 — the direct payoff of depth pruning.
func BenchmarkAblationPredictByDepth(b *testing.B) {
	set, schema := deepModelData(b, 800)
	full, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	// A spread of query points so every run exercises varied tree paths.
	rng := dataset.NewRNG(23)
	queries := make([][]float64, 64)
	for i := range queries {
		x := make([]float64, schema.Len())
		x[schema.Index(features.NumIndices)] = float64(rng.Intn(1 << 18))
		x[schema.Index(features.FuncSize)] = float64(rng.Intn(100) + 5)
		x[schema.Index(features.Timestep)] = float64(rng.Intn(50))
		queries[i] = x
	}
	for _, depth := range []int{1, 3, 5, 15, 25} {
		pruned := full.Tree.PruneToDepth(depth)
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += pruned.Predict(queries[i&63])
			}
			_ = sink
		})
	}
}

// BenchmarkAblationExtractByFeatures measures the per-launch feature
// extraction cost at different schema sizes — the measurement cost the
// paper's feature reduction (Fig. 9) trades accuracy against.
func BenchmarkAblationExtractByFeatures(b *testing.B) {
	full := features.TableI()
	ann := caliper.New()
	ann.Set(features.Timestep, 5)
	k := raja.NewKernel("ablation::extract", nil)
	iset := raja.NewRange(0, 4096)
	for _, cnt := range []int{1, 3, 5, 10, full.Len()} {
		schema := features.NewSchema(full.Names()[:cnt]...)
		b.Run(fmt.Sprintf("features%d", cnt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				schema.Extract(k, iset, ann)
			}
		})
	}
}

// BenchmarkAblationTeamForkJoin measures the real fork/join cost versus
// team size: the overhead that makes sequential execution win small
// launches.
func BenchmarkAblationTeamForkJoin(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			tm := team.New(workers)
			defer tm.Close()
			body := func(int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.ParallelFor(0, workers, 1, body)
			}
		})
	}
}

// BenchmarkAblationForestVsTree compares decision cost of the single
// tree against the bagged-forest extension.
func BenchmarkAblationForestVsTree(b *testing.B) {
	set, schema := deepModelData(b, 400)
	tree, err := dtree.Train(set.X, set.Y, 2, dtree.Config{})
	if err != nil {
		b.Fatal(err)
	}
	forest, err := dtree.TrainForest(set.X, set.Y, 2, dtree.ForestConfig{Size: 15, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, schema.Len())
	x[schema.Index(features.NumIndices)] = 30000
	b.Run("tree", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += tree.Predict(x)
		}
		_ = sink
	})
	b.Run("forest15", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += forest.Predict(x)
		}
		_ = sink
	})
}

// BenchmarkAblationRecorderOverhead measures the per-launch cost of
// running with the recorder installed — the training-run perturbation
// the paper keeps low by limiting collected features.
func BenchmarkAblationRecorderOverhead(b *testing.B) {
	schema := features.TableI()
	ann := caliper.New()
	rec := tuner.NewRecorder(schema, ann)
	ctx := &raja.Context{Default: raja.Params{Policy: raja.SeqExec}, Observe: rec.Observe}
	k := raja.NewKernel("ablation::recorded", nil)
	iset := raja.NewRange(0, 64)
	body := func(int) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raja.ForAll(ctx, k, iset, body)
	}
}

// Ablation experiments from the harness, as benchmarks.

func BenchmarkAblMachineSensitivity(b *testing.B) { benchExperiment(b, "abl-machine") }
func BenchmarkAblClassifierChoice(b *testing.B)   { benchExperiment(b, "abl-classifier") }
func BenchmarkAblNoiseRobustness(b *testing.B)    { benchExperiment(b, "abl-noise") }
