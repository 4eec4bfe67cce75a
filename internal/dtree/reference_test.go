package dtree

import (
	"math"
	"sort"

	"apollo/internal/dataset"
)

// referenceTrain is induction as it was before rank coding: every node
// re-sorts its samples on every feature and scans the sorted order. Train
// must agree with it byte for byte wherever the reference's tree has no
// empty child. It shares Train's input checks, and it takes the
// adjacent-float guard on the midpoint: without it the reference loops
// forever on a split that does not separate.
func referenceTrain(X [][]float64, y []int, numClasses int, cfg Config) (*Tree, error) {
	if err := checkInputs(X, y, numClasses); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b := &refBuilder{X: X, y: y, numClasses: numClasses, cfg: cfg}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	root := b.build(idx, 0)
	t := &Tree{Root: root, NumFeatures: len(X[0]), NumClasses: numClasses, FeatureNames: cfg.FeatureNames}
	t.importances = computeImportances(root, len(X[0]))
	return t, nil
}

type refBuilder struct {
	X          [][]float64
	y          []int
	numClasses int
	cfg        Config
}

func (b *refBuilder) classCounts(idx []int) []int {
	counts := make([]int, b.numClasses)
	for _, i := range idx {
		counts[b.y[i]]++
	}
	return counts
}

type refSplit struct {
	feature   int
	threshold float64
	decrease  float64
	leftIdx   []int
	rightIdx  []int
}

func (b *refBuilder) build(idx []int, depth int) *Node {
	counts := b.classCounts(idx)
	node := &Node{Feature: -1, Label: majority(counts), Counts: counts, Samples: len(idx), Impurity: gini(counts, len(idx))}
	if node.Impurity == 0 || len(idx) < b.cfg.MinSamplesSplit || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return node
	}
	best := b.bestSplit(idx, node.Impurity)
	if best == nil {
		return node
	}
	node.Feature = best.feature
	node.Threshold = best.threshold
	node.Left = b.build(best.leftIdx, depth+1)
	node.Right = b.build(best.rightIdx, depth+1)
	return node
}

func (b *refBuilder) bestSplit(idx []int, parentImpurity float64) *refSplit {
	n := len(idx)
	numFeatures := len(b.X[idx[0]])
	var best *refSplit
	order := make([]int, n)
	leftCounts := make([]int, b.numClasses)
	rightCounts := make([]int, b.numClasses)
	for f := 0; f < numFeatures; f++ {
		copy(order, idx)
		feat := f
		sort.Slice(order, func(a, c int) bool {
			return b.X[order[a]][feat] < b.X[order[c]][feat]
		})
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		copy(rightCounts, b.classCounts(order))
		for i := 0; i < n-1; i++ {
			label := b.y[order[i]]
			leftCounts[label]++
			rightCounts[label]--
			v, next := b.X[order[i]][f], b.X[order[i+1]][f]
			if v == next {
				continue
			}
			nl, nr := i+1, n-i-1
			if nl < b.cfg.MinSamplesLeaf || nr < b.cfg.MinSamplesLeaf {
				continue
			}
			decrease := parentImpurity -
				(float64(nl)/float64(n))*gini(leftCounts, nl) -
				(float64(nr)/float64(n))*gini(rightCounts, nr)
			if decrease <= b.cfg.MinImpurityDecrease {
				continue
			}
			if best == nil || decrease > best.decrease {
				best = &refSplit{feature: f, threshold: midpoint(v, next), decrease: decrease}
			}
		}
	}
	if best == nil {
		return nil
	}
	for _, i := range idx {
		if b.X[i][best.feature] <= best.threshold {
			best.leftIdx = append(best.leftIdx, i)
		} else {
			best.rightIdx = append(best.rightIdx, i)
		}
	}
	return best
}

// loopShaped is a set shaped like the closed loop's labelled window: 372
// vectors by 41 features, two classes, 19 constant columns and the rest
// with 2 to 26 distinct values, labels a function of two columns with 1%
// flipped — so its tree has about the loop's 30 nodes.
func loopShaped(seed uint64) ([][]float64, []int) {
	rng := dataset.NewRNG(seed)
	const n, f = 372, 41
	distinct := make([]int, f)
	for j := range distinct {
		distinct[j] = 1
		if j >= 19 {
			distinct[j] = 2 + rng.Intn(25)
		}
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = make([]float64, f)
		for j := range X[i] {
			X[i][j] = math.Exp2(float64(rng.Intn(distinct[j])))
		}
		if X[i][20]*X[i][33] > 64 {
			y[i] = 1
		}
		if rng.Intn(100) == 0 {
			y[i] ^= 1
		}
	}
	return X, y
}

// continuous is 2 000 vectors of 41 uniform features with noise labels:
// every column has about as many distinct values as samples, and the
// tree grows until its leaves are pure.
func continuous(seed uint64) ([][]float64, []int) {
	rng := dataset.NewRNG(seed)
	X := make([][]float64, 2000)
	y := make([]int, len(X))
	for i := range X {
		X[i] = make([]float64, 41)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		y[i] = rng.Intn(2)
	}
	return X, y
}
