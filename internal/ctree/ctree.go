// Package ctree is Apollo's publish-time model compiler: it flattens a
// trained dtree.Tree into one branch-predictable threaded array and owns
// every post-training decision representation the serving stack runs.
//
// The interpreted dtree walk chases heap pointers — every step is a
// dependent load into an allocation the garbage collector placed, so a
// cold predict pays a cache miss per level. The compiled form is one
// packed node array: an int32 feature index, two int32 child offsets and
// a float64 threshold per internal node (24 bytes — two to three nodes
// per cache line), flattened in left-first preorder so the common "take
// the left branch" step lands on the adjacent element.
// Leaves are not stored at all: a child offset < 0 encodes the predicted
// label as ^label, which turns the walk's leaf test into a sign check.
//
// Compilation happens once per model, where core builds it (core.NewModel:
// training, the JSON decoders); every consumer reads Model.Compiled and
// the hot path only ever walks the array — one walk, Predict, whatever
// the tree's shape. PredictN amortizes it over a vector of launches, and
// PredictOffsets emits the compact decision-trail encoding the flight
// recorder stores (node offsets, 4 bytes per step) which DecodeOffsets
// expands back into full provenance against the same array.
package ctree

import (
	"fmt"
	"math"

	"apollo/internal/dtree"
)

// pnode is one packed internal node of the walk array: the feature
// index, both child references, and the threshold in 24 bytes, so every
// level of the walk touches at most one cache line (two to three nodes
// per line).
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
	// nodes is the packed walk array, indexed by node offset, that every
	// predict runs on and DecodeOffsets reads; its total footprint is
	// about a quarter of the interpreted node set, which is what keeps
	// realistic models cache-resident. Only internal nodes are
	// materialized; a child reference < 0 is a leaf encoding ^label.
	nodes []pnode

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
		maxFeat = max(maxFeat, int32(n.Feature))
		i := int32(len(ct.nodes))
		ct.nodes = append(ct.nodes, pnode{feat: int32(n.Feature), thresh: n.Threshold})
		// Left-first preorder: the left child of node i is node i+1, so
		// the "<= threshold" branch walks linearly through the array.
		l, err := flatten(n.Left)
		if err != nil {
			return 0, err
		}
		r, err := flatten(n.Right)
		if err != nil {
			return 0, err
		}
		ct.nodes[i].left, ct.nodes[i].right = l, r
		return i, nil
	}
	if _, err := flatten(t.Root); err != nil {
		return nil, err
	}
	if ct.numFeatures <= int(maxFeat) {
		ct.numFeatures = int(maxFeat) + 1
	}
	return ct, nil
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
// classes into out (which must be at least len(X) long). The node array is
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
		if int(ref) >= len(t.nodes) {
			break // foreign or corrupt trail; keep what decoded cleanly
		}
		nd := &t.nodes[ref]
		mf := nd.feat
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
		if i+1 < len(offs) && nd.left != nd.right {
			right = offs[i+1] == nd.right
		} else {
			// The trail was truncated before this step's outcome was
			// recorded, or both children lead to the same leaf (so the
			// next offset is ambiguous); reconstruct the direction from
			// the value, mirroring the walk's comparison.
			right = !(v <= nd.thresh)
		}
		trail[steps] = dtree.TrailStep{
			Feature:   sf,
			Right:     right,
			Threshold: nd.thresh,
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
		Internal:  len(t.nodes),
		Leaves:    t.leaves,
		Nodes:     len(t.nodes) + t.leaves,
		Depth:     t.depth,
		FlatBytes: len(t.nodes) * 24,
	}
}
