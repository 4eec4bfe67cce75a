package harness

import (
	"fmt"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/platform"
	"apollo/internal/raja"
)

// The ablation experiments go beyond the paper's evaluation: each one
// isolates a design choice DESIGN.md calls out and measures its effect.

// AblMachine quantifies machine sensitivity: a policy model trained
// against the Sandy Bridge node is evaluated against labels derived from
// a 64-core many-core node, whose fork cost and core speed shift the
// seq/parallel crossover. The accuracy drop is the reason Apollo trains
// on the target architecture (the paper's training runs are per-machine).
func (r *Runner) AblMachine() error {
	desc, err := AppByName("CleverLeaf")
	if err != nil {
		return err
	}
	snbSet, err := r.labeled("CleverLeaf", core.ExecutionPolicy, r.schema)
	if err != nil {
		return err
	}
	snbModel, err := core.Train(snbSet, core.TrainConfig{})
	if err != nil {
		return err
	}

	// Re-record the same workload against the many-core machine model
	// and relabel.
	knl := platform.KNLNode()
	steps := r.stepsFor(desc)
	knlFrame := dataset.NewFrame(core.RecordColumns(r.schema)...)
	for _, problem := range desc.Problems {
		for _, size := range r.sizesFor(desc) {
			ann := caliper.New()
			rec := NewSweepRecorder(r.schema, ann, knl, r.opts.NoiseAmp, r.opts.Seed)
			clk := platform.NewSimClock(knl, 0, 0)
			ctx := raja.NewSimContext(clk, desc.DefaultParams)
			ctx.Hooks = rec
			sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
			if err != nil {
				return err
			}
			for i := 0; i < steps; i++ {
				sim.Step()
			}
			knlFrame.Append(rec.Frame())
		}
	}
	knlSet, err := core.Label(knlFrame, r.schema, core.ExecutionPolicy)
	if err != nil {
		return err
	}
	knlModel, err := core.Train(knlSet, core.TrainConfig{})
	if err != nil {
		return err
	}

	tbl := newTable("model", "on Sandy Bridge labels", "on many-core labels")
	tbl.addRow("trained on Sandy Bridge", percent(snbModel.Evaluate(snbSet)), percent(snbModel.Evaluate(knlSet)))
	tbl.addRow("trained on many-core", percent(knlModel.Evaluate(snbSet)), percent(knlModel.Evaluate(knlSet)))
	tbl.write(r.opts.Out)
	fmt.Fprintf(r.opts.Out, "\nCrossover shift: a %s-trained model loses accuracy on the %d-core node\n",
		"Sandy Bridge", knl.Cores)
	fmt.Fprintln(r.opts.Out, "and vice versa; Apollo's off-line training is per-architecture by design.")
	return nil
}

// AblClassifier compares the paper's single decision tree against the
// bagged-forest extension (Section III-B anticipates needing "more
// complex classifiers"): held-out accuracy and decision cost both matter,
// and the tree wins the cost side by an order of magnitude.
func (r *Runner) AblClassifier() error {
	tbl := newTable("application", "tree CV acc.", "forest holdout acc.", "tree depth", "forest trees")
	for _, desc := range Apps() {
		set, err := r.labeled(desc.Name, core.ExecutionPolicy, r.schema)
		if err != nil {
			return err
		}
		cv, err := core.CrossValidate(set, r.opts.Folds, r.opts.Seed, core.TrainConfig{})
		if err != nil {
			return err
		}
		// Forest: 80/20 holdout (bagging already resamples internally).
		folds := dataset.KFold(set.Len(), 5, r.opts.Seed)
		train, test := set.Subset(folds[0].Train), set.Subset(folds[0].Test)
		forest, err := dtree.TrainForest(train.X, train.Y, set.Param.NumClasses(),
			dtree.ForestConfig{Size: 15, Seed: r.opts.Seed})
		if err != nil {
			return err
		}
		forestAcc := forest.Accuracy(test.X, test.Y)
		tree, err := core.Train(set, core.TrainConfig{})
		if err != nil {
			return err
		}
		tbl.addRow(desc.Name, percent(cv.MeanAccuracy), percent(forestAcc),
			tree.Tree.Depth(), len(forest.Trees))
	}
	tbl.write(r.opts.Out)
	fmt.Fprintln(r.opts.Out, "\nForests match tree accuracy on this parameter space; each decision costs")
	fmt.Fprintln(r.opts.Out, "Size x a tree evaluation, so the single tree remains the deployment model.")
	return nil
}

// AblNoise sweeps the measurement-noise amplitude and reports both
// models' cross-validated accuracy. It isolates the repository's
// explanation for Table II's contrast: policy labels are robust to noise
// (seq and omp differ by large factors) while chunk labels drown in it
// (most chunks tie within a few percent).
func (r *Runner) AblNoise() error {
	desc, err := AppByName("CleverLeaf")
	if err != nil {
		return err
	}
	amps := []float64{0, 0.02, 0.05, 0.08, 0.15}
	tbl := newTable("noise amplitude", "policy accuracy", "chunk accuracy")
	steps := r.stepsFor(desc)
	for _, amp := range amps {
		frame := dataset.NewFrame(core.RecordColumns(r.schema)...)
		for _, size := range r.sizesFor(desc) {
			ann := caliper.New()
			rec := NewSweepRecorder(r.schema, ann, r.machine, amp, r.opts.Seed)
			clk := platform.NewSimClock(r.machine, 0, 0)
			ctx := raja.NewSimContext(clk, desc.DefaultParams)
			ctx.Hooks = rec
			sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: size})
			if err != nil {
				return err
			}
			for i := 0; i < steps; i++ {
				sim.Step()
			}
			frame.Append(rec.Frame())
		}
		polAcc, err := cvAccuracy(frame, r, core.ExecutionPolicy)
		if err != nil {
			return err
		}
		chunkAcc, err := cvAccuracy(frame, r, core.ChunkSize)
		if err != nil {
			return err
		}
		tbl.addRow(fmt.Sprintf("%.0f%%", amp*100), percent(polAcc), percent(chunkAcc))
	}
	tbl.write(r.opts.Out)
	fmt.Fprintln(r.opts.Out, "\nChunk-size labels collapse as noise grows (candidates tie within noise);")
	fmt.Fprintln(r.opts.Out, "policy labels survive because seq and parallel differ by large factors.")
	return nil
}

// cvAccuracy labels a frame for the parameter and cross-validates.
func cvAccuracy(frame *dataset.Frame, r *Runner, param core.Parameter) (float64, error) {
	set, err := core.Label(frame, r.schema, param)
	if err != nil {
		return 0, err
	}
	cv, err := core.CrossValidate(set, r.opts.Folds, r.opts.Seed, core.TrainConfig{})
	if err != nil {
		return 0, err
	}
	return cv.MeanAccuracy, nil
}
