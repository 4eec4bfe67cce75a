package core

import (
	"fmt"

	"apollo/internal/dataset"
)

// CVResult summarizes a k-fold cross-validation.
type CVResult struct {
	// FoldAccuracies holds the test accuracy of each fold's model.
	FoldAccuracies []float64
	// MeanAccuracy is the mean of FoldAccuracies — the score the paper
	// reports in Table II.
	MeanAccuracy float64
	// Confusion[actual][predicted] aggregates test predictions over all
	// folds.
	Confusion [][]int
}

// CrossValidate runs k-fold cross-validation of a decision-tree model on
// the labeled set (the paper uses k = 10) and returns the per-fold and
// mean accuracies. The fold assignment is deterministic in seed.
func CrossValidate(set *LabeledSet, k int, seed uint64, cfg TrainConfig) (*CVResult, error) {
	n := set.Len()
	if n < 2 {
		return nil, fmt.Errorf("core: cross-validation needs at least 2 samples, have %d", n)
	}
	folds := dataset.KFold(n, k, seed)
	numClasses := set.Param.NumClasses()

	res := &CVResult{Confusion: make([][]int, numClasses)}
	for c := range res.Confusion {
		res.Confusion[c] = make([]int, numClasses)
	}

	for _, fold := range folds {
		model, err := Train(set.Subset(fold.Train), cfg)
		if err != nil {
			return nil, fmt.Errorf("core: training fold model: %w", err)
		}
		correct := 0
		for _, i := range fold.Test {
			pred := model.Predict(set.X[i])
			res.Confusion[set.Y[i]][pred]++
			if pred == set.Y[i] {
				correct++
			}
		}
		if len(fold.Test) > 0 {
			res.FoldAccuracies = append(res.FoldAccuracies, float64(correct)/float64(len(fold.Test)))
		}
	}
	var sum float64
	for _, a := range res.FoldAccuracies {
		sum += a
	}
	if len(res.FoldAccuracies) > 0 {
		res.MeanAccuracy = sum / float64(len(res.FoldAccuracies))
	}
	return res, nil
}

// Evaluate scores a trained model against a labeled set drawn from a
// (possibly different) application or input deck — the paper's
// cross-application experiment (Table III). The set's schema may differ in
// layout from the model's; vectors are projected by feature name.
func (m *Model) Evaluate(set *LabeledSet) float64 {
	if set.Len() == 0 {
		return 0
	}
	proj := m.NewProjector(set.Schema)
	correct := 0
	for i, x := range set.X {
		if proj.Predict(x) == set.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(set.X))
}

// Score is what a model costs on a labeled window, launch-weighted: the
// achieved-against-oracle quantity every publish and drift decision is
// written in.
type Score struct {
	// PredictedNS is the total runtime of the variants the model picks.
	PredictedNS float64
	// OracleNS is the total runtime of the labels, the fastest observed.
	OracleNS float64
	// Mispredicted is the weight of the vectors where pick and label differ.
	Mispredicted float64
	// Weight is the set's total weight.
	Weight float64
}

// Score walks the set once under the model's predictions. The set's
// schema may be a superset of the model's; vectors are projected by
// feature name.
func (m *Model) Score(set *LabeledSet) Score {
	var sc Score
	proj := m.NewProjector(set.Schema)
	for i, x := range set.X {
		w, pick := set.weight(i), proj.Predict(x)
		sc.PredictedNS += w * set.TimeOf(i, pick)
		sc.OracleNS += w * set.TimeOf(i, set.Y[i])
		if pick != set.Y[i] {
			sc.Mispredicted += w
		}
		sc.Weight += w
	}
	return sc
}

// PredictedTimeNS returns the total mean runtime of the set under the
// model's predictions, alongside the totals for the best possible choice
// (oracle) and a fixed static class — the paper's Fig. 6 and Fig. 7
// comparisons.
func (m *Model) PredictedTimeNS(set *LabeledSet, staticClass int) (predicted, best, static float64) {
	for i := range set.X {
		static += set.weight(i) * set.TimeOf(i, staticClass)
	}
	sc := m.Score(set)
	return sc.PredictedNS, sc.OracleNS, static
}
