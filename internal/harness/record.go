package harness

import (
	"fmt"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/platform"
	"apollo/internal/raja"
)

// Variants returns the paper's training grid: the two execution policies,
// with the parallel policy swept over the default chunk and the eleven
// explicit chunk sizes.
func Variants() []raja.Params {
	out := []raja.Params{
		{Policy: raja.SeqExec},
		{Policy: raja.OmpParallelForExec, Chunk: raja.DefaultChunk},
	}
	for _, c := range raja.ChunkSizes {
		out = append(out, raja.Params{Policy: raja.OmpParallelForExec, Chunk: c})
	}
	return out
}

// encodeName mirrors the func feature's string encoding.
func encodeName(name string) float64 { return caliper.Encode(name) }

// SweepRecorder records one training row per (launch, variant) in a
// single pass. The workload sequence is identical across the paper's
// per-variant training runs (the applications are deterministic), so
// instead of re-executing the application once per parameter value, the
// recorder asks the machine model for the runtime of every variant at
// each launch and applies independent measurement noise per variant —
// producing the same data set as 13 separate recorded runs at 1/13 the
// cost. Package tuner's Recorder remains the faithful one-variant-per-run
// component and is exercised by the examples and integration tests.
type SweepRecorder struct {
	schema   *features.Schema
	ann      *caliper.Annotations
	machine  *platform.Machine
	noise    *platform.Noise
	variants []raja.Params

	frame   *dataset.Frame
	samples uint64
	row     []float64
}

// NewSweepRecorder builds a multi-variant recorder.
func NewSweepRecorder(schema *features.Schema, ann *caliper.Annotations, machine *platform.Machine, noiseAmp float64, seed uint64) *SweepRecorder {
	var noise *platform.Noise
	if noiseAmp > 0 {
		noise = &platform.Noise{Amplitude: noiseAmp, Seed: seed}
	}
	return &SweepRecorder{
		schema:   schema,
		ann:      ann,
		machine:  machine,
		noise:    noise,
		variants: Variants(),
		frame:    dataset.NewFrame(core.RecordColumns(schema)...),
		row:      make([]float64, schema.Len()+3),
	}
}

// Begin pins the executed policy to sequential; under the simulated
// clock the recorded runtimes come from the machine model per variant,
// not from the execution itself.
func (r *SweepRecorder) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	return raja.Params{Policy: raja.SeqExec}, true
}

// End synthesizes one sample per variant for the launch.
func (r *SweepRecorder) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	n := len(r.schema.ExtractInto(r.row, k, iset, r.ann))
	r.samples++
	for vi, v := range r.variants {
		t := r.machine.KernelTimeNS(k.Mix, iset.Len(), v.Policy.Parallel(), v.Chunk)
		key := k.ID<<40 ^ r.samples<<8 ^ uint64(vi)
		t *= r.noise.Mul(key)
		r.row[n] = float64(v.Policy)
		r.row[n+1] = float64(v.Chunk)
		r.row[n+2] = t
		r.frame.AddRow(r.row)
	}
}

// Frame returns the recorded samples.
func (r *SweepRecorder) Frame() *dataset.Frame { return r.frame }

// appData caches an application's recorded training data.
type appData struct {
	desc app.Descriptor
	// all holds every sample of every (problem, size) run.
	all *dataset.Frame
	// perProblem holds the samples of each input deck (all sizes).
	perProblem map[string]*dataset.Frame
}

// record runs every (problem, size) combination of the application in
// record mode and returns the cached data.
func (r *Runner) record(appName string) (*appData, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.data[appName]; ok {
		return d, nil
	}
	desc, err := AppByName(appName)
	if err != nil {
		return nil, err
	}
	d := &appData{
		desc:       desc,
		all:        dataset.NewFrame(core.RecordColumns(r.schema)...),
		perProblem: make(map[string]*dataset.Frame),
	}
	steps := r.stepsFor(desc)
	for _, problem := range desc.Problems {
		problemFrame := dataset.NewFrame(core.RecordColumns(r.schema)...)
		for _, size := range r.sizesFor(desc) {
			frame, err := r.recordRun(desc, problem, size, steps)
			if err != nil {
				return nil, fmt.Errorf("recording %s/%s/%d: %w", appName, problem, size, err)
			}
			problemFrame.Append(frame)
		}
		d.perProblem[problem] = problemFrame
		d.all.Append(problemFrame)
	}
	r.data[appName] = d
	return d, nil
}

// recordRun executes one (problem, size) training run in record mode.
func (r *Runner) recordRun(desc app.Descriptor, problem string, size, steps int) (*dataset.Frame, error) {
	ann := caliper.New()
	rec := NewSweepRecorder(r.schema, ann, r.machine, r.opts.NoiseAmp, r.opts.Seed)
	clk := platform.NewSimClock(r.machine, 0, 0)
	ctx := raja.NewSimContext(clk, desc.DefaultParams)
	ctx.Hooks = rec
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		sim.Step()
	}
	return rec.Frame(), nil
}

// deckFreeSchema is the Table I schema without deck-specific features,
// used for the paper's deck-independent accuracy models (Table II).
func (r *Runner) deckFreeSchema() *features.Schema {
	return r.schema.Without(features.ProblemName)
}

// labeled builds the labeled set of one application for a parameter.
func (r *Runner) labeled(appName string, param core.Parameter, schema *features.Schema) (*core.LabeledSet, error) {
	d, err := r.record(appName)
	if err != nil {
		return nil, err
	}
	return core.Label(d.all, schema, param)
}

// labeledProblem builds the labeled set of one (application, problem).
func (r *Runner) labeledProblem(appName, problem string, param core.Parameter, schema *features.Schema) (*core.LabeledSet, error) {
	d, err := r.record(appName)
	if err != nil {
		return nil, err
	}
	frame, ok := d.perProblem[problem]
	if !ok {
		return nil, fmt.Errorf("harness: %s has no problem %q", appName, problem)
	}
	return core.Label(frame, schema, param)
}

// policyModel trains the deployment policy model of one application:
// full-feature training followed by the paper's lightweight reduction
// (top 5 features, tree depth 15).
func (r *Runner) policyModel(appName string) (*core.Model, *core.LabeledSet, error) {
	set, err := r.labeled(appName, core.ExecutionPolicy, r.schema)
	if err != nil {
		return nil, nil, err
	}
	full, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		return nil, nil, err
	}
	reduced, err := full.Reduce(set, 5, 15, core.TrainConfig{})
	if err != nil {
		return nil, nil, err
	}
	return reduced, set, nil
}
