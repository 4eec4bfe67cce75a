package drift

import (
	"math"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/features"
)

// The three formulas core.Model.Score replaced, verbatim from the commit
// before it (d730798): the oracle of TestScorerMatchesTheThreeOldFormulas.

func oldMispredictRate(m *core.Model, set *core.LabeledSet) float64 {
	proj := m.NewProjector(set.Schema)
	var wrong, total float64
	for i, x := range set.X {
		w := set.Weights[i]
		total += w
		if proj.Predict(x) != set.Y[i] {
			wrong += w
		}
	}
	if total == 0 {
		return 0
	}
	return wrong / total
}

func oldDriftPredictedTimeNS(m *core.Model, set *core.LabeledSet) float64 {
	proj := m.NewProjector(set.Schema)
	var sum, total float64
	for i, x := range set.X {
		t := set.MeanTimes[i][proj.Predict(x)]
		if math.IsNaN(t) {
			for _, v := range set.MeanTimes[i] {
				if !math.IsNaN(v) && (math.IsNaN(t) || v > t) {
					t = v
				}
			}
		}
		w := set.Weights[i]
		sum += w * t
		total += w
	}
	if total == 0 {
		return math.NaN()
	}
	return sum / total
}

func oldModelPredictedTimeNS(m *core.Model, set *core.LabeledSet, staticClass int) (predicted, best, static float64) {
	timeOrWorst := func(times []float64, class int) float64 {
		if class >= 0 && class < len(times) && !math.IsNaN(times[class]) {
			return times[class]
		}
		worst := 0.0
		for _, t := range times {
			if !math.IsNaN(t) && t > worst {
				worst = t
			}
		}
		return worst
	}
	proj := m.NewProjector(set.Schema)
	for i, x := range set.X {
		times := set.MeanTimes[i]
		w := 1.0
		if i < len(set.Weights) && set.Weights[i] > 0 {
			w = set.Weights[i]
		}
		predicted += w * timeOrWorst(times, proj.Predict(x))
		best += w * timeOrWorst(times, set.Y[i])
		static += w * timeOrWorst(times, staticClass)
	}
	return
}

// panics reports whether f panicked (the old drift formulas index
// Weights and MeanTimes unchecked).
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// constModel always picks class; as a chunk_size model it can pick past
// the two columns of a policy set.
func constModel(t *testing.T, param core.Parameter, class int) *core.Model {
	t.Helper()
	schema := features.TableI().Select(features.NumIndices)
	m, err := core.NewModel(param, schema, &dtree.Tree{
		Root: &dtree.Node{Feature: -1, Label: class}, NumFeatures: 1, NumClasses: param.NumClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScorerMatchesTheThreeOldFormulas(t *testing.T) {
	schema := features.TableI()
	ni := schema.Index(features.NumIndices)
	split := &dtree.Node{Feature: 0, Threshold: 900,
		Left: &dtree.Node{Feature: -1, Label: 0}, Right: &dtree.Node{Feature: -1, Label: 1}}
	crossover, err := core.NewModel(core.ExecutionPolicy, schema.Select(features.NumIndices),
		&dtree.Tree{Root: split, NumFeatures: 1, NumClasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*core.Model{
		"crossover":  crossover,
		"always-seq": constModel(t, core.ExecutionPolicy, 0),
		"always-omp": constModel(t, core.ExecutionPolicy, 1),
		"class-7":    constModel(t, core.ChunkSize, 7), // past a policy set's width
	}

	rng := dataset.NewRNG(19)
	var nanPicks, widePicks, absent int
	for trial := 0; trial < 200; trial++ {
		// A policy window as the Labeler emits it: positive mean times with
		// at least one variant observed per vector (the other may be NaN),
		// the label the fastest observed, weights above zero.
		set := &core.LabeledSet{Schema: schema, Param: core.ExecutionPolicy}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			x := make([]float64, schema.Len())
			x[ni] = float64(int(16) << rng.Intn(14))
			times := []float64{1 + 1e4*rng.Float64(), 1 + 1e4*rng.Float64()}
			if rng.Intn(3) == 0 {
				times[rng.Intn(2)] = math.NaN()
			}
			y := 0
			if math.IsNaN(times[0]) || times[1] < times[0] {
				y = 1
			}
			set.X, set.Y, set.MeanTimes = append(set.X, x), append(set.Y, y), append(set.MeanTimes, times)
			set.Weights = append(set.Weights, 0.5+8*rng.Float64())
		}
		ones := *set // the same vectors with every weight spelled out as 1
		ones.Weights = make([]float64, set.Len())
		for i := range ones.Weights {
			ones.Weights[i] = 1
		}
		bare := *set // ... and with the weights absent
		bare.Weights = nil

		for name, m := range models {
			for _, tc := range []struct {
				what     string
				set, ref *core.LabeledSet // the old formulas run on ref
			}{{"weighted", set, set}, {"absent weights", &bare, &ones}} {
				var wantRate, wantNS float64
				oldPanicked := panics(func() {
					wantRate = oldMispredictRate(m, tc.ref)
					wantNS = oldDriftPredictedTimeNS(m, tc.ref)
				})
				wantPred, wantBest, wantStatic := oldModelPredictedTimeNS(m, tc.set, 1)
				pred, best, static := m.PredictedTimeNS(tc.set, 1)
				if !sameBits(pred, wantPred) || !sameBits(best, wantBest) || !sameBits(static, wantStatic) {
					t.Fatalf("trial %d, %s, %s: Model.PredictedTimeNS = (%v, %v, %v), the old formula (%v, %v, %v)",
						trial, name, tc.what, pred, best, static, wantPred, wantBest, wantStatic)
				}
				rate, ns := MispredictRate(m, tc.set), PredictedTimeNS(m, tc.set)
				if oldPanicked {
					// Only a pick past the set's width: the new scorer prices
					// it as core's checked formula always did.
					if name != "class-7" || tc.set.Len() == 0 {
						t.Fatalf("trial %d, %s, %s: the old drift formulas panicked", trial, name, tc.what)
					}
					widePicks++
					var total float64
					for i := range tc.ref.X {
						total += tc.ref.Weights[i]
					}
					wantRate, wantNS = 1, wantPred/total
				}
				if !sameBits(rate, wantRate) || !sameBits(ns, wantNS) {
					t.Fatalf("trial %d, %s, %s: drift scores (%v, %v), the old formulas (%v, %v)",
						trial, name, tc.what, rate, ns, wantRate, wantNS)
				}
				if tc.set.Weights == nil {
					absent++
				}
			}
		}
		for i := range set.X {
			if math.IsNaN(set.MeanTimes[i][0]) || math.IsNaN(set.MeanTimes[i][1]) {
				nanPicks++ // always-seq or always-omp picks it
			}
		}
	}
	if nanPicks == 0 || widePicks == 0 || absent == 0 {
		t.Fatalf("generator covered %d unobserved picks, %d over-wide picks, %d absent-weight sets; want all three", nanPicks, widePicks, absent)
	}
}
