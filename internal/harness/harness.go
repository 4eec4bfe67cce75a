// Package harness regenerates every table and figure of the paper's
// evaluation (Section IV). Each experiment has a stable identifier
// (fig1, fig2, fig4, table1, table2, fig6–fig13, table3, table4); the
// apollo-bench command and the repository's benchmark suite both drive
// this package.
//
// Experiments run the three proxy applications on the analytic Sandy
// Bridge node model (see package platform for the substitution), record
// training data, train and reduce decision-tree models, and print the
// same rows and series the paper reports. Absolute numbers differ from
// the paper's testbed; the acceptance criteria are the shapes (see
// DESIGN.md section 3).
package harness

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"apollo/internal/app"
	"apollo/internal/ares"
	"apollo/internal/cleverleaf"
	"apollo/internal/features"
	"apollo/internal/lulesh"
	"apollo/internal/platform"
	"apollo/internal/raja"
)

// Options configures a harness run.
type Options struct {
	// Out receives the experiment reports.
	Out io.Writer
	// Quick shrinks problem sizes and step counts for tests.
	Quick bool
	// Seed drives measurement noise and cross-validation shuffling.
	Seed uint64
	// NoiseAmp is the relative measurement-noise amplitude applied to
	// recorded kernel times (default 0.08, roughly the run-to-run
	// variation of a dedicated node).
	NoiseAmp float64
	// Folds is the cross-validation fold count (default 10, as in the
	// paper).
	Folds int
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Seed == 0 {
		o.Seed = 20170529 // IPDPS 2017 opening day
	}
	if o.NoiseAmp == 0 {
		o.NoiseAmp = 0.08
	}
	if o.Folds == 0 {
		o.Folds = 10
		if o.Quick {
			o.Folds = 5
		}
	}
	return o
}

// Runner executes experiments, caching recorded training data across
// experiments so the full suite records each application once.
type Runner struct {
	opts    Options
	machine *platform.Machine
	schema  *features.Schema

	mu   sync.Mutex
	data map[string]*appData
}

// NewRunner builds a runner over the modeled Sandy Bridge node.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:    opts.withDefaults(),
		machine: platform.SandyBridgeNode(),
		schema:  features.TableI(),
		data:    make(map[string]*appData),
	}
}

// Apps returns the three applications of the evaluation, in paper order.
func Apps() []app.Descriptor {
	return []app.Descriptor{
		lulesh.Descriptor(),
		cleverleaf.Descriptor(),
		ares.Descriptor(),
	}
}

// AppByName returns the named application descriptor.
func AppByName(name string) (app.Descriptor, error) {
	for _, d := range Apps() {
		if d.Name == name {
			return d, nil
		}
	}
	return app.Descriptor{}, fmt.Errorf("unknown application %q", name)
}

// Experiment is one reproducible artifact of the evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) error
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Fig 1: runtime variation across execution policy choices", (*Runner).Fig1},
		{"fig2", "Fig 2: dynamic-best vs static OpenMP, most variable CleverLeaf kernels", (*Runner).Fig2},
		{"fig4", "Fig 4: example decision tree model and generated code", (*Runner).Fig4},
		{"table1", "Table I: features collected for each RAJA kernel", (*Runner).Table1},
		{"table2", "Table II: model accuracy (execution policy, chunk size)", (*Runner).Table2},
		{"fig6", "Fig 6: predicted execution policies vs best and static OpenMP", (*Runner).Fig6},
		{"fig7", "Fig 7: predicted chunk sizes vs best and static 128", (*Runner).Fig7},
		{"fig8", "Fig 8: normalized importance of the top 5 features", (*Runner).Fig8},
		{"fig9", "Fig 9: model accuracy vs number of features", (*Runner).Fig9},
		{"fig10", "Fig 10: model accuracy vs decision tree depth", (*Runner).Fig10},
		{"fig11", "Fig 11: speedups from dynamically tuned execution policies", (*Runner).Fig11},
		{"fig12", "Fig 12: CleverLeaf strong scaling with dynamic tuning", (*Runner).Fig12},
		{"fig13", "Fig 13: ARES Hotspot strong scaling with dynamic tuning", (*Runner).Fig13},
		{"table3", "Table III: cross-application and cross-deck model accuracy", (*Runner).Table3},
		{"table4", "Table IV: tuning-technique taxonomy with measured costs", (*Runner).Table4},
		{"abl-machine", "Ablation: model portability across machine models", (*Runner).AblMachine},
		{"abl-classifier", "Ablation: decision tree vs bagged forest", (*Runner).AblClassifier},
		{"abl-noise", "Ablation: label robustness vs measurement noise", (*Runner).AblNoise},
	}
}

// ExperimentIDs returns the experiment identifiers in order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// Run executes the experiment with the given ID, or all of them for "all".
func (r *Runner) Run(id string) error {
	if id == "all" {
		for _, e := range Experiments() {
			if err := r.runOne(e); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return r.runOne(e)
		}
	}
	return fmt.Errorf("harness: unknown experiment %q (have %v)", id, ExperimentIDs())
}

func (r *Runner) runOne(e Experiment) error {
	fmt.Fprintf(r.opts.Out, "\n=== %s — %s ===\n", e.ID, e.Title)
	return e.Run(r)
}

// sizesFor returns the training sizes for an app under the options.
func (r *Runner) sizesFor(desc app.Descriptor) []int {
	sizes := desc.TrainSizes
	if r.opts.Quick && len(sizes) > 2 {
		sizes = sizes[:2]
	}
	return sizes
}

// stepsFor returns the per-run step count for an app under the options.
func (r *Runner) stepsFor(desc app.Descriptor) int {
	steps := desc.Steps
	if r.opts.Quick && steps > 6 {
		steps = 6
	}
	return steps
}

// kernelNames maps the encoded func feature back to kernel names across
// all applications.
func kernelNames() map[float64]string {
	out := make(map[float64]string)
	add := func(ks []*raja.Kernel) {
		for _, k := range ks {
			out[encodeName(k.Name)] = k.Name
		}
	}
	add(lulesh.Kernels())
	add(cleverleaf.Kernels())
	add(ares.Kernels())
	return out
}

// sortedKeys returns map keys sorted for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
