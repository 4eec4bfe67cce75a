package harness

import (
	"fmt"
	"time"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/cleverleaf"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/instmix"
	"apollo/internal/mpirt"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/search"
	"apollo/internal/stats"
	"apollo/internal/tuner"
)

// hooksFactory builds the Apollo component installed for a run, given the
// run's annotation blackboard.
type hooksFactory func(ann *caliper.Annotations) raja.Hooks

// defaultHooksFactory returns the application's static default: nil hooks
// (context default parameters) or the app's hand-assigned policies.
func defaultHooksFactory(desc app.Descriptor) hooksFactory {
	return func(ann *caliper.Annotations) raja.Hooks {
		if desc.NewDefaultHooks != nil {
			return desc.NewDefaultHooks()
		}
		return nil
	}
}

// tunedHooksFactory returns a factory installing the Apollo tuner with
// the given policy model.
func tunedHooksFactory(r *Runner, desc app.Descriptor, model *core.Model) hooksFactory {
	return func(ann *caliper.Annotations) raja.Hooks {
		return tuner.NewTuner(r.schema, ann, desc.DefaultParams).UsePolicyModel(model)
	}
}

// timedRun executes one single-node application run and returns its
// simulated wall time in nanoseconds.
func (r *Runner) timedRun(desc app.Descriptor, problem string, size, steps int, factory hooksFactory) (float64, error) {
	ann := caliper.New()
	clk := platform.NewSimClock(r.machine, r.opts.NoiseAmp, r.opts.Seed+11)
	ctx := raja.NewSimContext(clk, desc.DefaultParams)
	ctx.Hooks = factory(ann)
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
	if err != nil {
		return 0, err
	}
	for i := 0; i < steps; i++ {
		sim.Step()
	}
	return clk.NowNS(), nil
}

// Fig11 reports the end-to-end speedup of Apollo-tuned execution against
// each application's default configuration, across problem sizes.
func (r *Runner) Fig11() error {
	tbl := newTable("application", "problem", "size", "default", "apollo", "speedup")
	for _, desc := range Apps() {
		// One model per application, reused across input decks, as the
		// paper deploys it.
		model, _, err := r.policyModel(desc.Name)
		if err != nil {
			return err
		}
		steps := r.stepsFor(desc)
		problems := desc.Problems
		if r.opts.Quick {
			problems = problems[:1]
		}
		for _, problem := range problems {
			for _, size := range r.sizesFor(desc) {
				def, err := r.timedRun(desc, problem, size, steps, defaultHooksFactory(desc))
				if err != nil {
					return err
				}
				tuned, err := r.timedRun(desc, problem, size, steps, tunedHooksFactory(r, desc, model))
				if err != nil {
					return err
				}
				tbl.addRow(desc.Name, problem, size, stats.FormatNS(def), stats.FormatNS(tuned), ratio(def/tuned))
			}
		}
	}
	tbl.write(r.opts.Out)
	return nil
}

// scalingRun executes one rank-decomposed run under the bulk-synchronous
// scaling model and returns its simulated wall time.
func (r *Runner) scalingRun(desc app.Descriptor, problem string, size, steps, ranks int, factory hooksFactory) (float64, error) {
	ann := caliper.New()
	clk := platform.NewSimClock(r.machine, r.opts.NoiseAmp, r.opts.Seed+13)
	ctx := raja.NewSimContext(clk, desc.DefaultParams)
	timer := mpirt.NewTimer(ann, ranks)
	ctx.Hooks, ctx.Observe = factory(ann), timer.Observe
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size, Ranks: ranks})
	if err != nil {
		return 0, err
	}
	for i := 0; i < steps; i++ {
		timer.Step(clk.NowNS, sim.Step)
	}
	return timer.TotalNS(), nil
}

// scalingRanks returns the strong-scaling rank counts of Figs. 12/13.
func (r *Runner) scalingRanks() []int {
	if r.opts.Quick {
		return []int{16, 64, 256}
	}
	return []int{16, 32, 64, 128, 256}
}

// scalingTable renders a strong-scaling comparison for one application
// and a set of input problems.
func (r *Runner) scalingTable(appName string, problems []string, size int) error {
	desc, err := AppByName(appName)
	if err != nil {
		return err
	}
	model, _, err := r.policyModel(appName)
	if err != nil {
		return err
	}
	steps := r.stepsFor(desc)
	for _, problem := range problems {
		tbl := newTable("cores", "default", "apollo", "speedup")
		for _, ranks := range r.scalingRanks() {
			def, err := r.scalingRun(desc, problem, size, steps, ranks, defaultHooksFactory(desc))
			if err != nil {
				return err
			}
			tuned, err := r.scalingRun(desc, problem, size, steps, ranks, tunedHooksFactory(r, desc, model))
			if err != nil {
				return err
			}
			tbl.addRow(ranks, stats.FormatNS(def), stats.FormatNS(tuned), ratio(def/tuned))
		}
		fmt.Fprintf(r.opts.Out, "\n[%s — %s, size %d]\n", appName, problem, size)
		tbl.write(r.opts.Out)
	}
	return nil
}

// Fig12 strong-scales CleverLeaf's three input problems from 16 to 256
// simulated cores, comparing Apollo against the default policy, and
// renders the final mesh configuration and density field of each problem
// (the visualizations of the paper's figure).
func (r *Runner) Fig12() error {
	size := 128
	if r.opts.Quick {
		size = 64
	}
	if err := r.scalingTable("CleverLeaf", []string{"sod", "sedov", "triple_pt"}, size); err != nil {
		return err
	}
	fmt.Fprintln(r.opts.Out, "\nMesh configuration and density field at the final step:")
	for _, problem := range []string{"sod", "sedov", "triple_pt"} {
		sim, err := r.runCleverLeaf(problem, 64, 24)
		if err != nil {
			return err
		}
		patches, cells, minC, maxC := sim.Hierarchy().CoverageStats()
		fmt.Fprintf(r.opts.Out, "\n[%s] fine level: %d patches, %d cells (patch sizes %d-%d)\n",
			problem, patches, cells, minC, maxC)
		fmt.Fprintln(r.opts.Out, sim.Hierarchy().RenderASCII(64))
		fmt.Fprintln(r.opts.Out, sim.Hierarchy().RenderField(cleverleaf.FRho, 64))
	}
	return nil
}

// runCleverLeaf advances an untimed CleverLeaf run for visualization.
func (r *Runner) runCleverLeaf(problem string, size, steps int) (*cleverleaf.Sim, error) {
	ann := caliper.New()
	clk := platform.NewSimClock(r.machine, 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	sim, err := cleverleaf.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		sim.Step()
	}
	return sim, nil
}

// Fig13 strong-scales the ARES Hotspot problem.
func (r *Runner) Fig13() error {
	size := 128
	if r.opts.Quick {
		size = 48
	}
	return r.scalingTable("ARES", []string{"hotspot"}, size)
}

// table3Config is one train/test configuration of Table III.
type table3Config struct {
	app, problem, label string
}

func table3Configs() []table3Config {
	return []table3Config{
		{"LULESH", "sedov", "L Sedov"},
		{"CleverLeaf", "sod", "C Sod"},
		{"CleverLeaf", "sedov", "C Sedov"},
		{"CleverLeaf", "triple_pt", "C TriplePt"},
		{"ARES", "sedov", "A Sedov"},
		{"ARES", "jet", "A Jet"},
		{"ARES", "hotspot", "A Hotspot"},
	}
}

// Table3 trains a policy model per (application, problem) configuration
// and evaluates it against every configuration: rows are training sets,
// columns test sets. Diagonal entries use a held-out split.
func (r *Runner) Table3() error {
	configs := table3Configs()
	type split struct {
		full, train, test *core.LabeledSet
	}
	splits := make([]split, len(configs))
	for i, cfg := range configs {
		set, err := r.labeledProblem(cfg.app, cfg.problem, core.ExecutionPolicy, r.schema)
		if err != nil {
			return err
		}
		folds := dataset.KFold(set.Len(), 5, r.opts.Seed)
		splits[i] = split{
			full:  set,
			train: set.Subset(folds[0].Train),
			test:  set.Subset(folds[0].Test),
		}
	}
	header := []string{"train \\ test"}
	for _, cfg := range configs {
		header = append(header, cfg.label)
	}
	tbl := newTable(header...)
	for i, cfg := range configs {
		model, err := core.Train(splits[i].train, core.TrainConfig{})
		if err != nil {
			return err
		}
		row := []interface{}{cfg.label}
		for j := range configs {
			var acc float64
			if i == j {
				acc = model.Evaluate(splits[j].test)
			} else {
				acc = model.Evaluate(splits[j].full)
			}
			row = append(row, fmt.Sprintf("%.2f", acc))
		}
		tbl.addRow(row...)
	}
	tbl.write(r.opts.Out)
	return nil
}

// Table4 reproduces the taxonomy of tuning techniques and adds measured
// costs for the two dynamic tuners this repository implements: Apollo's
// classifier and the empirical on-line search baseline.
func (r *Runner) Table4() error {
	tbl := newTable("package & domain", "model", "tuning style", "speed", "technique")
	for _, row := range [][5]string{
		{"ActiveHarmony (application kernels)", "Empirical", "Dynamic (run-time)", "Slow", "Search"},
		{"Apollo (application kernels)", "Statistical", "Dynamic (run-time)", "Fast", "Classifier"},
		{"ATLAS (dense linear algebra)", "Empirical", "Static (off-line)", "Fast", "Search"},
		{"Bergstra et al. (image filters)", "Statistical", "Static (off-line)", "Fast", "Search"},
		{"Calotoiu et al. (MPI scaling)", "Analytical", "Dynamic (run-time)", "N/A", "N/A"},
		{"FFTW (FFT)", "Empirical", "Static (off-line)", "Slow", "Search"},
		{"Hoefler et al. (application runtime)", "Analytical", "Dynamic (run-time)", "N/A", "N/A"},
		{"Orio (application kernels)", "Empirical", "Static (off-line)", "Slow", "Search"},
		{"OpenTuner (application kernels)", "Empirical", "Static (off-line)", "Slow", "Search"},
		{"OSKI (sparse linear algebra)", "Empirical", "Dynamic (run-time)", "Slow", "Search"},
		{"PEMOGEN (application kernels)", "Analytical", "Dynamic (run-time)", "N/A", "N/A"},
		{"Nitro (code variants)", "Statistical", "Dynamic (run-time)", "Slow", "Classifier"},
		{"Ding et al. (code variants)", "Statistical", "Dynamic (run-time)", "Slow", "Classifier"},
	} {
		tbl.addRow(row[0], row[1], row[2], row[3], row[4])
	}
	tbl.write(r.opts.Out)

	// Measured: the cost of one Apollo decision (real wall clock — this
	// is measurable on any host) and the convergence cost of the
	// empirical search baseline on the modeled node.
	model, _, err := r.policyModel("CleverLeaf")
	if err != nil {
		return err
	}
	proj := model.NewProjector(r.schema)
	x := make([]float64, r.schema.Len())
	x[r.schema.Index("num_indices")] = 4096
	const iters = 200000
	start := time.Now()
	sink := 0
	for i := 0; i < iters; i++ {
		sink += proj.Predict(x)
	}
	perDecision := float64(time.Since(start).Nanoseconds()) / iters
	_ = sink

	srch := search.New(search.Config{TrialsPerCandidate: 3})
	mix := instmix.NewMix().With(instmix.Add, 8).With(instmix.Movsd, 6)
	launches := srch.TrialsToConverge()
	var searchCost, oracleCost float64
	clk := platform.NewSimClock(r.machine, 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{})
	ctx.Hooks = srch
	k := raja.NewKernel("table4::probe", mix)
	n := 256
	for i := 0; i < launches; i++ {
		raja.ForAll(ctx, k, raja.NewRange(0, n), func(int) {})
	}
	searchCost = clk.NowNS()
	oracleCost = r.machine.SeqTimeNS(mix, n) * float64(launches)

	fmt.Fprintf(r.opts.Out, "\nMeasured on this build:\n")
	fmt.Fprintf(r.opts.Out, "  Apollo decision cost:          %.0f ns per kernel launch (depth-%d tree)\n",
		perDecision, model.Tree.Depth())
	fmt.Fprintf(r.opts.Out, "  Search convergence (per kernel): %d launches; exploration cost %.1fx the oracle\n",
		launches, searchCost/oracleCost)
	return nil
}
