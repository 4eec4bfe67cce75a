package harness

import (
	"fmt"

	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/raja"
	"apollo/internal/stats"
)

// Fig6 compares, for each application's eight most time-consuming
// variable kernels, the total runtime under the model's predicted
// execution policies against the best possible choice and the static
// OpenMP default.
func (r *Runner) Fig6() error {
	return r.predictedVsBest(core.ExecutionPolicy, int(raja.OmpParallelForExec), "static OpenMP")
}

// Fig7 is the chunk-size analogue of Fig6: predicted chunk sizes against
// the best choice and the static default of 128.
func (r *Runner) Fig7() error {
	return r.predictedVsBest(core.ChunkSize, core.ChunkClass(128), "static 128")
}

// predictedVsBest renders the Fig 6/7 family: per kernel, total time of
// predicted / best / static choices, normalized to best.
func (r *Runner) predictedVsBest(param core.Parameter, staticClass int, staticName string) error {
	names := kernelNames()
	for _, desc := range Apps() {
		set, err := r.labeled(desc.Name, param, r.schema)
		if err != nil {
			return err
		}
		model, err := core.Train(set, core.TrainConfig{})
		if err != nil {
			return err
		}
		perKernel := kernelTotals(set, model, names, staticClass)
		top := topKernelsByStatic(perKernel, 8)

		tbl := newTable("kernel", "best", "predicted/best", staticName+"/best")
		var totPred, totBest, totStatic float64
		for _, kt := range top {
			tbl.addRow(kt.name, stats.FormatNS(kt.best),
				ratio(kt.predicted/max(kt.best, 1)), ratio(kt.static/max(kt.best, 1)))
			totPred += kt.predicted
			totBest += kt.best
			totStatic += kt.static
		}
		tbl.addRow("TOTAL", stats.FormatNS(totBest),
			ratio(totPred/max(totBest, 1)), ratio(totStatic/max(totBest, 1)))
		fmt.Fprintf(r.opts.Out, "\n[%s — %s]\n", desc.Name, param)
		tbl.write(r.opts.Out)
	}
	return nil
}

// Fig8 reports the normalized Gini importance of the top five features of
// each application's full-feature policy model.
func (r *Runner) Fig8() error {
	for _, desc := range Apps() {
		set, err := r.labeled(desc.Name, core.ExecutionPolicy, r.schema)
		if err != nil {
			return err
		}
		model, err := core.Train(set, core.TrainConfig{})
		if err != nil {
			return err
		}
		names, imps := model.FeatureRanking()
		// Normalize the top five against their own sum, as the paper's
		// figure does.
		var sum float64
		for i := 0; i < 5 && i < len(imps); i++ {
			sum += imps[i]
		}
		tbl := newTable("rank", "feature", "normalized importance")
		for i := 0; i < 5 && i < len(names); i++ {
			norm := 0.0
			if sum > 0 {
				norm = imps[i] / sum
			}
			tbl.addRow(i+1, names[i], fmt.Sprintf("%.2f", norm))
		}
		fmt.Fprintf(r.opts.Out, "\n[%s]\n", desc.Name)
		tbl.write(r.opts.Out)
	}
	return nil
}

// Fig9 reports cross-validated model accuracy when training on only the
// k most important features, k = 1..10.
func (r *Runner) Fig9() error {
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tbl := newTable(append([]string{"application"}, intHeaders(counts, "top-%d")...)...)
	for _, desc := range Apps() {
		set, err := r.labeled(desc.Name, core.ExecutionPolicy, r.schema)
		if err != nil {
			return err
		}
		full, err := core.Train(set, core.TrainConfig{})
		if err != nil {
			return err
		}
		ranked, _ := full.FeatureRanking()
		row := []interface{}{desc.Name}
		for _, k := range counts {
			acc, err := r.reducedCV(set, ranked, k, 0)
			if err != nil {
				return err
			}
			row = append(row, percent(acc))
		}
		tbl.addRow(row...)
	}
	tbl.write(r.opts.Out)
	return nil
}

// Fig10 reports cross-validated accuracy at a range of tree depths, with
// each model built on its application's five most important features.
func (r *Runner) Fig10() error {
	depths := []int{1, 2, 3, 5, 8, 10, 15, 20, 25}
	tbl := newTable(append([]string{"application"}, intHeaders(depths, "depth %d")...)...)
	for _, desc := range Apps() {
		set, err := r.labeled(desc.Name, core.ExecutionPolicy, r.schema)
		if err != nil {
			return err
		}
		full, err := core.Train(set, core.TrainConfig{})
		if err != nil {
			return err
		}
		ranked, _ := full.FeatureRanking()
		row := []interface{}{desc.Name}
		for _, depth := range depths {
			acc, err := r.reducedCV(set, ranked, 5, depth)
			if err != nil {
				return err
			}
			row = append(row, percent(acc))
		}
		tbl.addRow(row...)
	}
	tbl.write(r.opts.Out)
	return nil
}

// reducedCV cross-validates a model restricted to the top-k ranked
// features and an optional depth cap.
func (r *Runner) reducedCV(set *core.LabeledSet, ranked []string, topK, maxDepth int) (float64, error) {
	if topK > len(ranked) {
		topK = len(ranked)
	}
	reduced := set.Project(set.Schema.Select(ranked[:topK]...))
	cfg := core.TrainConfig{Tree: dtree.Config{MaxDepth: maxDepth}}
	cv, err := core.CrossValidate(reduced, r.opts.Folds, r.opts.Seed, cfg)
	if err != nil {
		return 0, err
	}
	return cv.MeanAccuracy, nil
}

// intHeaders renders a numeric header row.
func intHeaders(vals []int, format string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v)
	}
	return out
}
