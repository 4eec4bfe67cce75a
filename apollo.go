// Package apollo is the public API of the Apollo reproduction: a
// lightweight framework for fast, dynamic tuning of input-dependent code,
// after Beckingsale, Pearce, Laguna and Gamblin, "Apollo: Reusable Models
// for Fast, Dynamic Tuning of Input-Dependent Code" (IPDPS 2017).
//
// Apollo replaces costly on-line auto-tuning search with off-line trained
// decision-tree classifiers that select the fastest statically compiled
// variant of a kernel — its execution policy and schedule chunk size — at
// every launch, for a few nanoseconds per decision.
//
// # Workflow
//
// Applications write kernels against the RAJA-style ForAll abstraction:
//
//	k := apollo.NewKernel("app::my_kernel", apollo.NewMix().
//		With(apollo.OpAdd, 4).With(apollo.OpMovsd, 6))
//	apollo.ForAll(ctx, k, apollo.NewRange(0, n), func(i int) { ... })
//
// A training run is the application with one candidate parameter value
// as its context's Default and a Recorder observing (ctx.Observe =
// rec.Observe), capturing a feature vector and runtime per launch — one
// run per candidate value. Train labels each unique feature vector with
// its fastest variant and fits a decision tree; the model serializes to
// JSON and loads at runtime without recompilation. A production run
// installs a Tuner as the context's Hooks, which evaluates the model at
// every launch and writes the chosen parameters to the policy switcher.
// Hooks decide; observers (a Recorder, a Tracer) only watch.
//
// The deeper machinery lives in internal packages (raja, team, platform,
// dtree, core, tuner, codegen, harness); this package re-exports the
// supported surface.
package apollo

import (
	"apollo/internal/caliper"
	"apollo/internal/codegen"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/instmix"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/team"
	"apollo/internal/trace"
	"apollo/internal/tuner"
)

// Kernel execution types (package raja).
type (
	// Kernel is a forall launch site: name, unique ID, instruction mix.
	Kernel = raja.Kernel
	// IndexSet is a kernel's iteration space (ranges and lists).
	IndexSet = raja.IndexSet
	// RangeSegment is a contiguous index range.
	RangeSegment = raja.RangeSegment
	// ListSegment is an explicit index list.
	ListSegment = raja.ListSegment
	// Policy selects sequential or parallel execution.
	Policy = raja.Policy
	// Params is a full tunable parameter assignment (policy + chunk).
	Params = raja.Params
	// Hooks is the decider interface around each launch (a Tuner).
	Hooks = raja.Hooks
	// Context carries the execution environment for ForAll: its
	// decider (Hooks), static Default and observer (Observe).
	Context = raja.Context
	// Team is a goroutine worker team with OpenMP-style scheduling.
	Team = team.Team
)

// Execution policies.
const (
	// SeqExec runs iterations sequentially.
	SeqExec = raja.SeqExec
	// OmpParallelForExec runs iterations on the worker team.
	OmpParallelForExec = raja.OmpParallelForExec
)

// ChunkSizes is the training grid of schedule chunk sizes.
var ChunkSizes = raja.ChunkSizes

// Instruction-mix types (package instmix).
type (
	// Mix is a kernel body's grouped instruction histogram.
	Mix = instmix.Mix
	// OpGroup is one grouped mnemonic.
	OpGroup = instmix.Group
)

// Common mnemonic groups (the full set is in internal/instmix).
const (
	OpAdd    = instmix.Add
	OpSub    = instmix.Sub
	OpMulpd  = instmix.Mulpd
	OpDivsd  = instmix.Divsd
	OpSqrtsd = instmix.Sqrtsd
	OpMov    = instmix.Mov
	OpMovsd  = instmix.Movsd
	OpCmp    = instmix.Cmp
	OpMaxsd  = instmix.Maxsd
	OpMinsd  = instmix.Minsd
)

// NewMix returns an empty instruction mix.
func NewMix() *Mix { return instmix.NewMix() }

// NewKernel registers a kernel launch site.
func NewKernel(name string, mix *Mix) *Kernel { return raja.NewKernel(name, mix) }

// NewRange returns an index set over [begin, end).
func NewRange(begin, end int) *IndexSet { return raja.NewRange(begin, end) }

// NewList returns an index set over an explicit index list.
func NewList(indices []int) *IndexSet { return raja.NewList(indices) }

// NewIndexSet builds an index set from segments.
func NewIndexSet(segs ...raja.Segment) *IndexSet { return raja.NewIndexSet(segs...) }

// ForAll launches a kernel body over an index set through the context's
// hooks and policy switcher, returning the elapsed nanoseconds.
func ForAll(ctx *Context, k *Kernel, iset *IndexSet, body func(i int)) float64 {
	return raja.ForAll(ctx, k, iset, body)
}

// NewTeam creates a worker team with n goroutines (n <= 0 uses
// GOMAXPROCS). Close it when done.
func NewTeam(n int) *Team { return team.New(n) }

// NewContext returns a wall-clock execution context over a worker team
// with the given static default parameters.
func NewContext(tm *Team, def Params) *Context {
	return &Context{Team: tm, Default: def}
}

// Machine is the analytic node performance model used by the simulated
// clock (package platform).
type Machine = platform.Machine

// SimClock is a deterministic virtual clock over a Machine.
type SimClock = platform.SimClock

// SandyBridgeNode returns the model of the paper's 16-core testbed.
func SandyBridgeNode() *Machine { return platform.SandyBridgeNode() }

// NewSimClock returns a virtual clock with optional measurement noise.
func NewSimClock(m *Machine, noiseAmp float64, seed uint64) *SimClock {
	return platform.NewSimClock(m, noiseAmp, seed)
}

// NewSimContext returns a context timed by the machine model instead of
// the wall clock — the substitution this repository uses for the paper's
// dedicated node (see DESIGN.md).
func NewSimContext(clk *SimClock, def Params) *Context {
	return raja.NewSimContext(clk, def)
}

// Feature and data types.
type (
	// Schema is an ordered feature layout (Table I of the paper).
	Schema = features.Schema
	// Annotations is the caliper-style application feature blackboard.
	Annotations = caliper.Annotations
	// Frame is a columnar sample table with CSV persistence.
	Frame = dataset.Frame
)

// TableISchema returns the full Table I feature schema.
func TableISchema() *Schema { return features.TableI() }

// NewAnnotations returns an empty annotation blackboard.
func NewAnnotations() *Annotations { return caliper.New() }

// Tuning parameters a model can predict.
const (
	// ExecutionPolicy tunes sequential vs. parallel execution.
	ExecutionPolicy = core.ExecutionPolicy
	// ChunkSize tunes the static-schedule chunk size.
	ChunkSize = core.ChunkSize
)

// Parameter identifies a tunable parameter.
type Parameter = core.Parameter

// Runtime components.
type (
	// Recorder observes launches and collects training samples (one
	// variant per run, the context's Default).
	Recorder = tuner.Recorder
	// Tuner evaluates trained models at every kernel launch.
	Tuner = tuner.Tuner
	// Model is a trained, reusable decision-tree tuning model.
	Model = core.Model
	// LabeledSet is a labeled training set (fastest variant per vector).
	LabeledSet = core.LabeledSet
	// CVResult summarizes a k-fold cross-validation.
	CVResult = core.CVResult
	// TreeConfig controls decision-tree induction.
	TreeConfig = dtree.Config
)

// NewRecorder returns a recorder that records one sample per observed
// launch against the schema and blackboard; install its Observe as the
// context's observer.
func NewRecorder(schema *Schema, ann *Annotations) *Recorder {
	return tuner.NewRecorder(schema, ann)
}

// Model serving. A tuner's projector reads go through a ModelSource,
// which may atomically hot-swap a retrained model into a running
// application (Tuner.UseSource). The HTTP service side — registry
// daemon, serving client — lives in cmd/apollo-serve and the internal
// registry/server/client packages; see DESIGN.md "Serving trained
// models".
type (
	// ModelSource supplies a tuner's current projectors; implementations
	// may swap the set at any time and must be safe for concurrent reads.
	ModelSource = tuner.ModelSource
	// ProjectorSet is one immutable policy/chunk projector pair.
	ProjectorSet = tuner.Projectors
	// SwapSource is the trivial ModelSource: an atomically swappable
	// projector set, for embedding applications that manage models by hand.
	SwapSource = tuner.SwapSource
	// ModelEnvelope is the stable versioned wire/disk form of a published
	// model (name, version, schema hash, model).
	ModelEnvelope = core.Envelope
)

// NewTuner returns a tuner starting from base parameters; install models
// with UsePolicyModel / UseChunkModel, or route reads through a serving
// client with UseSource.
func NewTuner(schema *Schema, ann *Annotations, base Params) *Tuner {
	return tuner.NewTuner(schema, ann, base)
}

// Label groups recorded samples by feature vector and labels each unique
// vector with its fastest observed variant of the parameter.
func Label(frame *Frame, schema *Schema, param Parameter) (*LabeledSet, error) {
	return core.Label(frame, schema, param)
}

// Train fits a decision-tree model to a labeled set.
func Train(set *LabeledSet, cfg TreeConfig) (*Model, error) {
	return core.Train(set, core.TrainConfig{Tree: cfg})
}

// CrossValidate reports k-fold cross-validation accuracy of a model
// configuration on a labeled set.
func CrossValidate(set *LabeledSet, k int, seed uint64, cfg TreeConfig) (*CVResult, error) {
	return core.CrossValidate(set, k, seed, core.TrainConfig{Tree: cfg})
}

// LoadModel reads a model from a JSON file written by Model.Save; models
// retrain and reload without recompiling the application.
func LoadModel(path string) (*Model, error) { return core.LoadModel(path) }

// GenerateGo renders the model as Go source: the nested-conditional
// decision function the paper's code generator produces.
func GenerateGo(m *Model, pkg, funcName string) string {
	return codegen.Generate(m, pkg, funcName)
}

// RecordColumns returns the column layout of recorded-sample frames for a
// schema: every feature, then policy, chunk, and time_ns.
func RecordColumns(schema *Schema) []string { return core.RecordColumns(schema) }

// Tracing.
type (
	// Tracer records a per-launch timeline of the launches it observes.
	Tracer = trace.Tracer
	// TraceEvent is one recorded kernel launch.
	TraceEvent = trace.Event
	// TraceSummary aggregates a trace per kernel.
	TraceSummary = trace.Summary
)

// NewTracer returns a timeline recorder to install as the context's
// observer (ctx.Observe = tr.Observe); limit > 0 caps retained events.
func NewTracer(limit int) *Tracer { return trace.New(limit) }

// SummarizeTrace aggregates trace events per kernel, by total time.
func SummarizeTrace(events []TraceEvent) []TraceSummary { return trace.Summarize(events) }

// SaveChromeTrace writes trace events in the Chrome trace-event JSON
// format (loadable in chrome://tracing or Perfetto).
func SaveChromeTrace(path string, events []TraceEvent) error {
	return trace.SaveChromeTrace(path, events)
}
