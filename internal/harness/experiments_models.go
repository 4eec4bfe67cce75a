package harness

import (
	"fmt"
	"strconv"
	"strings"

	"apollo/internal/codegen"
	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/instmix"
	"apollo/internal/raja"
	"apollo/internal/stats"
)

// Fig1 reports the runtime variation across execution policy and chunk
// choices for each application's kernels: the fastest choice can be
// orders of magnitude faster than the slowest.
func (r *Runner) Fig1() error {
	names := kernelNames()
	tbl := newTable("application", "kernels", "median max/min", "p90 max/min", "worst max/min")
	for _, desc := range Apps() {
		d, err := r.record(desc.Name)
		if err != nil {
			return err
		}
		perKernel := variationByKernel(d, r.schema, names)
		var all []float64
		for _, ratios := range perKernel {
			all = append(all, ratios...)
		}
		tbl.addRow(desc.Name, len(perKernel),
			ratio(stats.Median(all)), ratio(stats.Percentile(all, 90)), ratio(stats.Max(all)))
	}
	tbl.write(r.opts.Out)
	fmt.Fprintln(r.opts.Out, "\nPer-kernel variation (max/min runtime across all policy and chunk choices):")
	for _, desc := range Apps() {
		d, err := r.record(desc.Name)
		if err != nil {
			return err
		}
		perKernel := variationByKernel(d, r.schema, names)
		kt := newTable("kernel", "launch configs", "median", "worst")
		for _, name := range sortedKeys(perKernel) {
			ratios := perKernel[name]
			kt.addRow(name, len(ratios), ratio(stats.Median(ratios)), ratio(stats.Max(ratios)))
		}
		fmt.Fprintf(r.opts.Out, "\n[%s]\n", desc.Name)
		kt.write(r.opts.Out)
	}
	return nil
}

// variationByKernel groups recorded samples by unique feature vector and
// returns, per kernel, the max/min runtime ratio of each unique launch
// configuration.
func variationByKernel(d *appData, schema *features.Schema, names map[float64]string) map[string][]float64 {
	frame := d.all
	funcIdx := frame.MustCol(features.Func)
	timeIdx := frame.MustCol(core.ColTimeNS)
	featIdx := make([]int, schema.Len())
	for i, n := range schema.Names() {
		featIdx[i] = frame.MustCol(n)
	}
	type minMax struct{ lo, hi float64 }
	groups := make(map[string]*minMax)
	groupKernel := make(map[string]float64)
	var key strings.Builder
	for i := 0; i < frame.Len(); i++ {
		row := frame.Row(i)
		key.Reset()
		for _, j := range featIdx {
			key.WriteString(strconv.FormatFloat(row[j], 'g', -1, 64))
			key.WriteByte('|')
		}
		k := key.String()
		g := groups[k]
		t := row[timeIdx]
		if g == nil {
			groups[k] = &minMax{lo: t, hi: t}
			groupKernel[k] = row[funcIdx]
			continue
		}
		if t < g.lo {
			g.lo = t
		}
		if t > g.hi {
			g.hi = t
		}
	}
	out := make(map[string][]float64)
	for k, g := range groups {
		if g.lo <= 0 {
			continue
		}
		name := names[groupKernel[k]]
		if name == "" {
			name = fmt.Sprintf("func_%g", groupKernel[k])
		}
		out[name] = append(out[name], g.hi/g.lo)
	}
	return out
}

// Fig2 compares the total time of CleverLeaf's most variable kernels
// under per-launch best policy selection against the static
// OpenMP-everywhere default.
func (r *Runner) Fig2() error {
	set, err := r.labeledProblem("CleverLeaf", "sedov", core.ExecutionPolicy, r.schema)
	if err != nil {
		return err
	}
	names := kernelNames()
	perKernel := kernelTotals(set, nil, names, int(raja.OmpParallelForExec))
	top := topKernelsByStatic(perKernel, 8)
	tbl := newTable("kernel", "static OpenMP", "dynamic best", "improvement")
	var totStatic, totBest float64
	for _, kt := range top {
		tbl.addRow(kt.name, stats.FormatNS(kt.static), stats.FormatNS(kt.best), ratio(kt.static/kt.best))
		totStatic += kt.static
		totBest += kt.best
	}
	tbl.addRow("TOTAL (8 kernels)", stats.FormatNS(totStatic), stats.FormatNS(totBest), ratio(totStatic/totBest))
	tbl.write(r.opts.Out)
	return nil
}

// kernelTotal holds one kernel's weighted time totals over a labeled set.
type kernelTotal struct {
	name                    string
	predicted, best, static float64
}

// kernelTotals accumulates per-kernel weighted time totals for the best
// and static choices and, given a model, for its predictions.
func kernelTotals(set *core.LabeledSet, model *core.Model, names map[float64]string, staticClass int) map[string]*kernelTotal {
	funcIdx := set.Schema.Index(features.Func)
	var proj *core.Projector
	if model != nil {
		proj = model.NewProjector(set.Schema)
	}
	out := make(map[string]*kernelTotal)
	for i, x := range set.X {
		name := names[x[funcIdx]]
		if name == "" {
			name = fmt.Sprintf("func_%g", x[funcIdx])
		}
		kt := out[name]
		if kt == nil {
			kt = &kernelTotal{name: name}
			out[name] = kt
		}
		w := set.Weights[i]
		kt.best += w * set.TimeOf(i, set.Y[i])
		kt.static += w * set.TimeOf(i, staticClass)
		if proj != nil {
			kt.predicted += w * set.TimeOf(i, proj.Predict(x))
		}
	}
	return out
}

// topKernelsByStatic returns the k kernels with the highest
// static-to-best improvement potential, ties broken by static time.
func topKernelsByStatic(per map[string]*kernelTotal, k int) []*kernelTotal {
	var all []*kernelTotal
	for _, kt := range per {
		all = append(all, kt)
	}
	// Sort by improvement ratio descending.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			ri := all[j].static / max(all[j].best, 1)
			rj := all[j-1].static / max(all[j-1].best, 1)
			if ri > rj || (ri == rj && all[j].static > all[j-1].static) {
				all[j], all[j-1] = all[j-1], all[j]
			} else {
				break
			}
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Fig4 prints an example decision tree in the paper's form — thresholds
// on num_indices choosing between sequential and parallel execution —
// and the Go code Apollo generates from it.
func (r *Runner) Fig4() error {
	schema := r.schema.Select(features.NumIndices, features.NumSegments)
	set, err := r.labeled("CleverLeaf", core.ExecutionPolicy, schema)
	if err != nil {
		return err
	}
	model, err := core.Train(set, core.TrainConfig{Tree: dtree.Config{MaxDepth: 3}})
	if err != nil {
		return err
	}
	fmt.Fprintln(r.opts.Out, "Decision tree (depth capped at 3):")
	fmt.Fprintln(r.opts.Out, model.Tree.String())
	fmt.Fprintln(r.opts.Out, "Generated Go decision function:")
	fmt.Fprintln(r.opts.Out, codegen.Generate(model, "tuned", "apolloBeginForall"))
	return nil
}

// Table1 prints the feature schema, reproducing the paper's Table I.
func (r *Runner) Table1() error {
	tbl := newTable("category", "feature", "description")
	kernelDesc := map[string]string{
		features.Func:        "Name of function",
		features.FuncSize:    "Total number of instructions in kernel body",
		features.IndexType:   "Type of RAJA IndexSet",
		features.LoopID:      "Address identifying kernel",
		features.NumIndices:  "Number of indices in each segment",
		features.NumSegments: "Number of segments",
		features.Stride:      "Stride of indices in each segment",
	}
	for _, f := range features.KernelFeatureNames() {
		tbl.addRow("kernel", f, kernelDesc[f])
	}
	for _, g := range instmix.GroupNames() {
		tbl.addRow("instruction", g, "Occurrences of the grouped mnemonic in the kernel body")
	}
	appDesc := map[string]string{
		features.Timestep:    "Current cycle",
		features.ProblemSize: "Global problem size",
		features.ProblemName: "Name of the input deck",
		features.PatchID:     "Numeric ID of the AMR subdomain being processed",
	}
	for _, f := range features.AppFeatureNames() {
		tbl.addRow("application", f, appDesc[f])
	}
	tbl.write(r.opts.Out)
	return nil
}

// Table2 reports 10-fold cross-validation accuracy of the execution
// policy and chunk-size models for each application, using
// deck-independent features as in the paper.
func (r *Runner) Table2() error {
	schema := r.deckFreeSchema()
	tbl := newTable("Application", "Execution Policy", "Chunk Size")
	for _, desc := range Apps() {
		polSet, err := r.labeled(desc.Name, core.ExecutionPolicy, schema)
		if err != nil {
			return err
		}
		polCV, err := core.CrossValidate(polSet, r.opts.Folds, r.opts.Seed, core.TrainConfig{})
		if err != nil {
			return err
		}
		chunkSet, err := r.labeled(desc.Name, core.ChunkSize, schema)
		if err != nil {
			return err
		}
		chunkCV, err := core.CrossValidate(chunkSet, r.opts.Folds, r.opts.Seed, core.TrainConfig{})
		if err != nil {
			return err
		}
		tbl.addRow(desc.Name, percent(polCV.MeanAccuracy), percent(chunkCV.MeanAccuracy))
	}
	tbl.write(r.opts.Out)
	return nil
}
