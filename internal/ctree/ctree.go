// Package ctree is Apollo's publish-time model compiler: it flattens a
// trained dtree.Tree into branch-predictable threaded arrays and owns
// every post-training decision representation the serving stack runs.
//
// The interpreted dtree walk chases heap pointers — every step is a
// dependent load into an allocation the garbage collector placed, so a
// cold predict pays a cache miss per level. The compiled form is a
// structure-of-arrays layout: one int32 feature index, one float64
// threshold, and two int32 child offsets per internal node (24 bytes —
// two to three nodes per cache line), flattened in left-first preorder so
// the common "take the left branch" step lands on the adjacent element.
// Leaves are not stored at all: a child offset < 0 encodes the predicted
// label as ^label, which turns the walk's leaf test into a sign check.
//
// Compilation happens once per model, where core builds it (core.NewModel:
// training, the JSON decoders); every consumer reads Model.Compiled and
// the hot path only ever walks the arrays — one walk, Predict, whatever
// the tree's shape. PredictN amortizes it over a vector of launches, and
// PredictOffsets emits the compact decision-trail encoding the flight
// recorder stores (node offsets, 4 bytes per step) which DecodeOffsets
// expands back into full provenance against the compiled layout.
package ctree

import (
	"fmt"
	"math"

	"apollo/internal/dtree"
)

// pnode is one packed internal node of the walk array: the feature
// index, both child references, and the threshold in 24 bytes, so every
// level of the walk touches at most one cache line (two to three nodes
// per line) instead of one line per SoA array.
type pnode struct {
	feat        int32
	left, right int32
	_           int32
	thresh      float64
}

// Tree is a compiled decision tree. It is immutable after Compile and
// safe for any number of concurrent readers; a model swap replaces the
// whole Tree behind an atomic pointer rather than mutating one.
type Tree struct {
	// nodes is the packed walk array every predict runs on; its total
	// footprint is about a quarter of the interpreted node set, which is
	// what keeps realistic models cache-resident.
	nodes []pnode
	// SoA node arrays, indexed by node offset — the canonical compiled
	// form that Layout serializes and DecodeOffsets reads. Only internal
	// nodes are materialized; a child reference < 0 is a leaf encoding
	// ^label.
	feat   []int32
	thresh []float64
	left   []int32
	right  []int32

	numFeatures int
	depth       int
	leaves      int

	leafLabel int32 // the constant prediction of a tree with no splits
}

// Compile flattens a trained tree. It validates the structure (every
// internal node must have two children and an in-range feature index) so
// a walk over the result can never index out of bounds.
func Compile(t *dtree.Tree) (*Tree, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("ctree: compiling a nil tree")
	}
	ct := &Tree{
		numFeatures: t.NumFeatures,
		depth:       t.Depth(),
		leaves:      t.NumLeaves(),
	}
	if t.Root.IsLeaf() {
		if t.Root.Label < 0 {
			return nil, fmt.Errorf("ctree: leaf with negative label %d", t.Root.Label)
		}
		ct.leafLabel = int32(t.Root.Label)
		return ct, nil
	}
	maxFeat := int32(-1)
	var flatten func(n *dtree.Node) (int32, error)
	flatten = func(n *dtree.Node) (int32, error) {
		if n.IsLeaf() {
			if n.Label < 0 {
				return 0, fmt.Errorf("ctree: leaf with negative label %d", n.Label)
			}
			return ^int32(n.Label), nil
		}
		if n.Left == nil || n.Right == nil {
			return 0, fmt.Errorf("ctree: internal node on feature %d missing a child", n.Feature)
		}
		if t.NumFeatures > 0 && n.Feature >= t.NumFeatures {
			return 0, fmt.Errorf("ctree: split feature %d out of range (%d features)", n.Feature, t.NumFeatures)
		}
		if int32(n.Feature) > maxFeat {
			maxFeat = int32(n.Feature)
		}
		i := int32(len(ct.feat))
		ct.feat = append(ct.feat, int32(n.Feature))
		ct.thresh = append(ct.thresh, n.Threshold)
		ct.left = append(ct.left, 0)
		ct.right = append(ct.right, 0)
		// Left-first preorder: the left child of node i is node i+1, so
		// the "<= threshold" branch walks linearly through the arrays.
		l, err := flatten(n.Left)
		if err != nil {
			return 0, err
		}
		ct.left[i] = l
		r, err := flatten(n.Right)
		if err != nil {
			return 0, err
		}
		ct.right[i] = r
		return i, nil
	}
	if _, err := flatten(t.Root); err != nil {
		return nil, err
	}
	if ct.numFeatures <= int(maxFeat) {
		ct.numFeatures = int(maxFeat) + 1
	}
	ct.pack()
	return ct, nil
}

// pack builds the packed walk array from the canonical SoA arrays.
func (ct *Tree) pack() {
	ct.nodes = make([]pnode, len(ct.feat))
	for i := range ct.feat {
		ct.nodes[i] = pnode{feat: ct.feat[i], left: ct.left[i], right: ct.right[i], thresh: ct.thresh[i]}
	}
}

// NumFeatures returns the width of accepted input vectors.
func (t *Tree) NumFeatures() int { return t.numFeatures }

// Predict returns the predicted class for x. It allocates nothing and
// performs one array-indexed comparison per tree level — the compiled
// replacement for the interpreted dtree walk.
//
//apollo:hotpath
func (t *Tree) Predict(x []float64) int {
	nodes := t.nodes
	if len(nodes) == 0 {
		return int(t.leafLabel)
	}
	ref := int32(0)
	for {
		n := &nodes[ref]
		if x[n.feat] <= n.thresh {
			ref = n.left
		} else {
			ref = n.right
		}
		if ref < 0 {
			return int(^ref)
		}
	}
}

// PredictN evaluates a batch of vectors in one compiled walk, writing
// classes into out (which must be at least len(X) long). The arrays are
// hoisted once for the whole batch, so the per-launch cost is below a
// single Predict call — the amortization a tuner gets when it decides a
// vector of queued launches together.
//
//apollo:hotpath
func (t *Tree) PredictN(X [][]float64, out []int) {
	nodes := t.nodes
	if len(nodes) == 0 {
		label := int(t.leafLabel)
		for i := range X {
			out[i] = label
		}
		return
	}
	for i, x := range X {
		ref := int32(0)
		for {
			n := &nodes[ref]
			if x[n.feat] <= n.thresh {
				ref = n.left
			} else {
				ref = n.right
			}
			if ref < 0 {
				break
			}
		}
		out[i] = int(^ref)
	}
}

// PredictOffsets evaluates x while recording the compact trail encoding:
// the offset of every internal node visited, terminated by the (negative)
// leaf reference taken, 4 bytes per step. n is the number of entries
// written; trails deeper than len(offs) keep walking but stop recording.
// DecodeOffsets expands the encoding back into full TrailSteps — this is
// what lets the flight recorder keep complete root-to-leaf provenance at
// an eighth of the TrailStep storage cost.
//
//apollo:hotpath
func (t *Tree) PredictOffsets(x []float64, offs []int32) (label, n int) {
	nodes := t.nodes
	if len(nodes) == 0 {
		if len(offs) > 0 {
			offs[0] = ^t.leafLabel
			n = 1
		}
		return int(t.leafLabel), n
	}
	ref := int32(0)
	for ref >= 0 {
		if n < len(offs) {
			offs[n] = ref
			n++
		}
		nd := &nodes[ref]
		if x[nd.feat] <= nd.thresh {
			ref = nd.left
		} else {
			ref = nd.right
		}
	}
	if n < len(offs) {
		offs[n] = ref
		n++
	}
	return int(^ref), n
}

// DecodeOffsets expands a compact offset trail (as written by
// PredictOffsets) into TrailSteps. src, when non-nil, maps the tree's
// feature indices into a source schema (the projector mapping; -1 marks
// features the source lacks) and the emitted steps carry source indices.
// features supplies
// the recorded source-layout feature values for each step's Value (0 for
// a feature the source lacks, which is what the walk saw; NaN when the
// snapshot does not reach the index). It returns the number of steps written and is
// tolerant of truncated or foreign trails: decoding stops at the first
// out-of-range offset.
func (t *Tree) DecodeOffsets(offs []int32, src []int32, features []float64, trail []dtree.TrailStep) (steps int) {
	for i := 0; i < len(offs) && steps < len(trail); i++ {
		ref := offs[i]
		if ref < 0 {
			break // terminal leaf reference
		}
		if int(ref) >= len(t.feat) {
			break // foreign or corrupt trail; keep what decoded cleanly
		}
		mf := t.feat[ref]
		sf := mf
		if src != nil {
			if int(mf) < len(src) {
				sf = src[mf]
			} else {
				sf = -1
			}
		}
		v := math.NaN()
		switch {
		case sf < 0:
			v = 0 // absent from the source: the projector fed the walk a zero
		case int(sf) < len(features):
			v = features[sf]
		}
		var right bool
		if i+1 < len(offs) && t.left[ref] != t.right[ref] {
			right = offs[i+1] == t.right[ref]
		} else {
			// The trail was truncated before this step's outcome was
			// recorded, or both children lead to the same leaf (so the
			// next offset is ambiguous); reconstruct the direction from
			// the value, mirroring the walk's comparison.
			right = !(v <= t.thresh[ref])
		}
		trail[steps] = dtree.TrailStep{
			Feature:   sf,
			Right:     right,
			Threshold: t.thresh[ref],
			Value:     v,
		}
		steps++
	}
	return steps
}

// Stats summarizes a compiled tree for operator-facing reports
// (apollo-inspect models, the server's model listing).
type Stats struct {
	// Internal and Leaves count node kinds; Nodes is their sum (equal to
	// the interpreted tree's node count).
	Internal int `json:"internal_nodes"`
	Leaves   int `json:"leaves"`
	Nodes    int `json:"nodes"`
	// Depth is the maximum comparisons on any root-to-leaf path.
	Depth int `json:"depth"`
	// FlatBytes is the footprint of the packed walk array (24 bytes per
	// internal node).
	FlatBytes int `json:"flat_bytes"`
}

// Stats returns the compiled tree's summary.
func (t *Tree) Stats() Stats {
	return Stats{
		Internal:  len(t.feat),
		Leaves:    t.leaves,
		Nodes:     len(t.feat) + t.leaves,
		Depth:     t.depth,
		FlatBytes: len(t.nodes) * 24,
	}
}

// Layout is the serializable form of the threaded arrays — what a flight
// capture embeds per site so offline tools (apollo-inspect flight) can
// decode compact offset trails without the original model.
type Layout struct {
	Feat   []int32   `json:"feat,omitempty"`
	Thresh []float64 `json:"thresh,omitempty"`
	Left   []int32   `json:"left,omitempty"`
	Right  []int32   `json:"right,omitempty"`
	// LeafLabel is set for leaf-only trees, which have no arrays.
	LeafLabel *int32 `json:"leaf_label,omitempty"`
}

// Layout exports the compiled arrays. The slices are shared, not copied:
// a Tree is immutable, and callers must treat the layout the same way.
func (t *Tree) Layout() *Layout {
	l := &Layout{Feat: t.feat, Thresh: t.thresh, Left: t.left, Right: t.right}
	if len(t.feat) == 0 {
		label := t.leafLabel
		l.LeafLabel = &label
	}
	return l
}

// FromLayout rebuilds a compiled tree from its serialized layout,
// validating that every internal child reference points strictly forward
// (the preorder invariant, which guarantees walks terminate) and stays in
// range. Trees rebuilt this way decode trails and predict; leaf counts
// and depth metadata are reconstructed from the arrays.
func FromLayout(l *Layout) (*Tree, error) {
	if l == nil {
		return nil, fmt.Errorf("ctree: nil layout")
	}
	n := len(l.Feat)
	if len(l.Thresh) != n || len(l.Left) != n || len(l.Right) != n {
		return nil, fmt.Errorf("ctree: layout arrays disagree: feat=%d thresh=%d left=%d right=%d",
			n, len(l.Thresh), len(l.Left), len(l.Right))
	}
	ct := &Tree{feat: l.Feat, thresh: l.Thresh, left: l.Left, right: l.Right}
	if n == 0 {
		if l.LeafLabel == nil {
			return nil, fmt.Errorf("ctree: empty layout without a leaf label")
		}
		if *l.LeafLabel < 0 {
			return nil, fmt.Errorf("ctree: leaf label %d negative", *l.LeafLabel)
		}
		ct.leafLabel = *l.LeafLabel
		ct.leaves = 1
		return ct, nil
	}
	maxFeat := int32(-1)
	for i := 0; i < n; i++ {
		if l.Feat[i] < 0 {
			return nil, fmt.Errorf("ctree: node %d has negative feature", i)
		}
		if l.Feat[i] > maxFeat {
			maxFeat = l.Feat[i]
		}
		for _, ref := range [2]int32{l.Left[i], l.Right[i]} {
			switch {
			case ref < 0:
				ct.leaves++
			case int(ref) >= n:
				return nil, fmt.Errorf("ctree: node %d child %d out of range (%d nodes)", i, ref, n)
			case ref <= int32(i):
				return nil, fmt.Errorf("ctree: node %d child %d breaks the preorder invariant", i, ref)
			}
		}
	}
	ct.numFeatures = int(maxFeat) + 1
	ct.depth = ct.computeDepth()
	ct.pack()
	return ct, nil
}

// computeDepth measures the maximum path length of the flattened tree.
func (t *Tree) computeDepth() int {
	var walk func(ref int32) int
	walk = func(ref int32) int {
		if ref < 0 {
			return 0
		}
		l, r := walk(t.left[ref]), walk(t.right[ref])
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}
