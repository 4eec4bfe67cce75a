package dtree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Config controls tree induction.
type Config struct {
	// MaxDepth caps tree depth (0 means unlimited).
	MaxDepth int
	// MinSamplesSplit is the minimum number of samples a node needs to
	// be considered for splitting (default 2).
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum number of samples each child of a
	// split must receive (default 1).
	MinSamplesLeaf int
	// MinImpurityDecrease is the minimum weighted impurity decrease a
	// split must achieve (default 0, i.e. any positive decrease).
	MinImpurityDecrease float64
	// FeatureNames optionally names features for rendering and codegen.
	FeatureNames []string
}

func (c Config) withDefaults() Config {
	if c.MinSamplesSplit < 2 {
		c.MinSamplesSplit = 2
	}
	if c.MinSamplesLeaf < 1 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// Train fits a CART decision tree to the samples X with labels y in
// [0, numClasses). Splits minimize Gini impurity; thresholds are midpoints
// between adjacent distinct feature values; induction is fully
// deterministic (all features considered at every node, first-best split
// wins ties by lowest feature index, then lowest threshold). Every
// feature value must be finite. Each feature is rank-coded once; a node
// searches its splits and partitions its samples on ranks.
func Train(X [][]float64, y []int, numClasses int, cfg Config) (*Tree, error) {
	if err := checkInputs(X, y, numClasses); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	b := newBuilder(X, y, numClasses, cfg)
	idx := make([]int32, len(X))
	counts := make([]int, numClasses)
	for i := range idx {
		idx[i] = int32(i)
		counts[y[i]]++
	}
	root := b.build(idx, counts, 0)
	t := &Tree{Root: root, NumFeatures: len(X[0]), NumClasses: numClasses, FeatureNames: cfg.FeatureNames}
	t.importances = computeImportances(root, t.NumFeatures)
	return t, nil
}

// checkInputs rejects what Train cannot fit, non-finite features among
// it: a NaN orders against nothing, an infinity makes a midpoint NaN.
func checkInputs(X [][]float64, y []int, numClasses int) error {
	if len(X) == 0 {
		return fmt.Errorf("dtree: no training samples")
	}
	if len(X) != len(y) {
		return fmt.Errorf("dtree: %d samples but %d labels", len(X), len(y))
	}
	if numClasses < 2 {
		return fmt.Errorf("dtree: need at least 2 classes, got %d", numClasses)
	}
	numFeatures := len(X[0])
	for i, x := range X {
		if len(x) != numFeatures {
			return fmt.Errorf("dtree: sample %d has %d features, want %d", i, len(x), numFeatures)
		}
		for f, v := range x {
			if v-v != 0 { // NaN or ±Inf
				return fmt.Errorf("dtree: sample %d has feature %d = %g, not finite", i, f, v)
			}
		}
	}
	for i, label := range y {
		if label < 0 || label >= numClasses {
			return fmt.Errorf("dtree: sample %d has label %d outside [0,%d)", i, label, numClasses)
		}
	}
	return nil
}

// column is one non-constant feature, rank-coded.
type column struct {
	feature int
	vals    []float64 // distinct values, ascending
	rank    []int32   // by sample, the index of its value in vals
}

type builder struct {
	y          []int
	numClasses int
	cfg        Config
	cols       []column
	// Scratch: class counts either side of the scanned boundary, the
	// histogram (by rank, numClasses counts then their total) and the
	// keys to sort, rank<<shift | label.
	left, right, hist []int
	keys              []uint64
	shift             uint
}

// newBuilder rank-codes every non-constant feature: an open-addressed
// table keyed by a value's bits (one slot for both zeros) gives each
// distinct value an id in the order first seen; only the distinct values
// are sorted, and ids map to ranks.
func newBuilder(X [][]float64, y []int, numClasses int, cfg Config) *builder {
	n := len(X)
	b := &builder{y: y, numClasses: numClasses, cfg: cfg, left: make([]int, numClasses),
		right: make([]int, numClasses), keys: make([]uint64, n), shift: uint(bits.Len(uint(numClasses - 1)))}
	slots := make([]int32, 1<<bits.Len(uint(2*n-1))) // id+1, 0 when empty; at most half full
	shift, mask := 64-bits.Len(uint(len(slots)-1)), uint64(len(slots)-1)
	ids, first, maxDistinct := make([]int32, n), []float64(nil), 0
	for f := range X[0] {
		clear(slots)
		first = first[:0]
		for i, x := range X {
			h := math.Float64bits(x[f]+0) * 0x9e3779b97f4a7c15 >> shift
			for slots[h] != 0 && first[slots[h]-1] != x[f] {
				h = (h + 1) & mask
			}
			if slots[h] == 0 {
				first = append(first, x[f])
				slots[h] = int32(len(first))
			}
			ids[i] = slots[h] - 1
		}
		if len(first) == 1 {
			continue // constant: no boundary to split on
		}
		col := column{feature: f, vals: slices.Clone(first), rank: make([]int32, n)}
		slices.Sort(col.vals)
		rankOf := make([]int32, len(first))
		for id, v := range first {
			rankOf[id] = int32(sort.SearchFloat64s(col.vals, v))
		}
		for i, id := range ids {
			col.rank[i] = rankOf[id]
		}
		b.cols = append(b.cols, col)
		maxDistinct = max(maxDistinct, len(col.vals))
	}
	b.hist = make([]int, maxDistinct*(numClasses+1))
	return b
}

// gini returns the Gini impurity of a class histogram with total samples n.
func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	imp := 1.0
	fn := float64(n)
	for _, c := range counts {
		p := float64(c) / fn
		imp -= p * p
	}
	return imp
}

// majority returns the most frequent class (lowest index wins ties).
func majority(counts []int) int {
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// midpoint is the threshold between distinct values v < next: halfway,
// or v itself when halfway rounds up to next (adjacent floats) or
// overflows, so that x <= threshold sends v left and next right.
func midpoint(v, next float64) float64 {
	if t := v + (next-v)/2; t < next {
		return t
	}
	return v
}

// split is a boundary: samples ranked at most lo in col go left, and hi
// is the next rank present at the node.
type split struct {
	col      *column
	lo, hi   int
	decrease float64 // impurity decrease, weighted within the node
}

// build grows the subtree over the samples idx, whose class histogram is
// counts, reordering idx so that the left child's samples come first.
func (b *builder) build(idx []int32, counts []int, depth int) *Node {
	node := &Node{Feature: -1, Label: majority(counts), Counts: counts, Samples: len(idx), Impurity: gini(counts, len(idx))}
	if node.Impurity == 0 || len(idx) < b.cfg.MinSamplesSplit || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return node
	}
	var best split
	for c := range b.cols {
		b.scan(&b.cols[c], idx, counts, node.Impurity, &best)
	}
	if best.col == nil {
		return node
	}
	node.Feature = best.col.feature
	node.Threshold = midpoint(best.col.vals[best.lo], best.col.vals[best.hi])
	left, right := make([]int, b.numClasses), slices.Clone(counts)
	nl := 0
	for j, i := range idx {
		if int(best.col.rank[i]) <= best.lo {
			idx[nl], idx[j] = i, idx[nl]
			nl++
			left[b.y[i]]++
			right[b.y[i]]--
		}
	}
	node.Left = b.build(idx[:nl], left, depth+1)
	node.Right = b.build(idx[nl:], right, depth+1)
	return node
}

// scan offers best every boundary of col between the samples idx, in
// rank order: from a histogram when col has no more distinct values than
// idx has samples, else from the samples' keys sorted.
func (b *builder) scan(col *column, idx []int32, counts []int, parentImpurity float64, best *split) {
	clear(b.left)
	copy(b.right, counts)
	w, prev, nl := b.numClasses+1, -1, 0
	if len(col.vals) <= len(idx) {
		hist := b.hist[:len(col.vals)*w]
		clear(hist)
		for _, i := range idx {
			hist[int(col.rank[i])*w+b.y[i]]++
			hist[int(col.rank[i])*w+w-1]++
		}
		for r := range col.vals {
			if row := hist[r*w : r*w+w]; row[w-1] > 0 {
				if prev >= 0 {
					b.offer(col, prev, r, nl, len(idx), parentImpurity, best)
				}
				for c, h := range row[:w-1] {
					b.left[c] += h
					b.right[c] -= h
				}
				nl, prev = nl+row[w-1], r
			}
		}
		return
	}
	keys := b.keys[:len(idx)]
	for j, i := range idx {
		keys[j] = uint64(col.rank[i])<<b.shift | uint64(b.y[i])
	}
	slices.Sort(keys)
	for j, key := range keys {
		if r := int(key >> b.shift); r != prev {
			if prev >= 0 {
				b.offer(col, prev, r, j, len(idx), parentImpurity, best)
			}
			prev = r
		}
		b.left[key&(1<<b.shift-1)]++
		b.right[key&(1<<b.shift-1)]--
	}
}

// offer scores the boundary between ranks lo and hi, with nl of the n
// samples (b.left's classes) at or below lo, and keeps it if it is the
// first admissible split or strictly better than best.
func (b *builder) offer(col *column, lo, hi, nl, n int, parentImpurity float64, best *split) {
	nr := n - nl
	if nl < b.cfg.MinSamplesLeaf || nr < b.cfg.MinSamplesLeaf {
		return
	}
	decrease := parentImpurity -
		(float64(nl)/float64(n))*gini(b.left, nl) -
		(float64(nr)/float64(n))*gini(b.right, nr)
	if decrease <= b.cfg.MinImpurityDecrease {
		return
	}
	if best.col == nil || decrease > best.decrease {
		*best = split{col: col, lo: lo, hi: hi, decrease: decrease}
	}
}

// Accuracy returns the fraction of samples the tree classifies correctly.
func (t *Tree) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range X {
		if t.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
