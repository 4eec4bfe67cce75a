// Package dtree implements the CART-style decision-tree classifier Apollo
// trains off-line and evaluates at every kernel launch.
//
// The paper chooses decision trees for two reasons that this package
// preserves: they convert directly into a handful of conditional
// statements (see package codegen), and they can be made smaller and
// cheaper simply by cutting the tree off at a given depth (PruneToDepth)
// or by training on a reduced feature subset guided by Gini feature
// importance (Importances).
package dtree

import (
	"fmt"
	"strings"
)

// Node is one node of a decision tree. Internal nodes route samples with
// x[Feature] <= Threshold to Left and the rest to Right; leaves predict
// Label.
type Node struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature int
	// Threshold is the split value (samples with value <= Threshold go
	// left).
	Threshold float64
	// Left and Right are the children (nil for leaves).
	Left, Right *Node
	// Label is the majority class of the training samples reaching the
	// node; it is the prediction when the node acts as a leaf.
	Label int
	// Counts is the per-class histogram of training samples at the node.
	Counts []int
	// Samples is the number of training samples at the node.
	Samples int
	// Impurity is the node's Gini impurity.
	Impurity float64
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Tree is a trained decision-tree classifier.
type Tree struct {
	Root *Node
	// NumFeatures is the width of input vectors.
	NumFeatures int
	// NumClasses is the number of distinct labels.
	NumClasses int
	// FeatureNames, if set, names each feature for rendering, code
	// generation, and importance reports.
	FeatureNames []string

	importances []float64
}

// Predict returns the predicted class for the feature vector x, walking
// from the root to a leaf. It is the hot-path operation Apollo performs at
// every kernel launch; it allocates nothing.
//
//apollo:hotpath
func (t *Tree) Predict(x []float64) int {
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// TrailStep is one internal-node comparison on the root-to-leaf path of
// a prediction: which feature was consulted, the value it had, the
// threshold it was compared against, and which way the sample went. A
// trail of steps is the decision's provenance — the flight recorder
// captures it per launch so an operator can see *why* a variant was
// chosen, not just which.
type TrailStep struct {
	// Feature is the split feature index (into the vector handed to
	// PredictTrail; projectors translate it to their source schema).
	Feature int32
	// Right reports whether the sample took the right branch
	// (value > threshold).
	Right bool
	// Threshold is the split value.
	Threshold float64
	// Value is the feature's value in the predicted vector.
	Value float64
}

// PredictTrail evaluates x like Predict while recording the root-to-leaf
// node trail into the caller's buffer. It returns the predicted label
// and the number of steps written; paths deeper than len(trail) keep
// walking but stop recording (steps then equals len(trail)). It
// allocates nothing, so the flight recorder can call it per launch.
//
//apollo:hotpath
func (t *Tree) PredictTrail(x []float64, trail []TrailStep) (label, steps int) {
	n := t.Root
	for !n.IsLeaf() {
		// Written as the negation of Predict's comparison so a NaN value
		// goes right on both paths; `v > threshold` would send it left.
		right := !(x[n.Feature] <= n.Threshold)
		if steps < len(trail) {
			trail[steps] = TrailStep{
				Feature:   int32(n.Feature),
				Right:     right,
				Threshold: n.Threshold,
				Value:     x[n.Feature],
			}
			steps++
		}
		if right {
			n = n.Right
		} else {
			n = n.Left
		}
	}
	return n.Label, steps
}

// Depth returns the maximum depth of the tree (a lone root is depth 0).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NumNodes returns the total number of nodes.
func (t *Tree) NumNodes() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// NumLeaves returns the number of leaves.
func (t *Tree) NumLeaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// PruneToDepth returns a copy of the tree truncated at the given depth:
// every internal node at depth maxDepth becomes a leaf predicting its
// majority label. This is the paper's model-reduction knob (Fig. 10); the
// pruned tree evaluates at most maxDepth comparisons per decision.
func (t *Tree) PruneToDepth(maxDepth int) *Tree {
	pruned := &Tree{
		NumFeatures:  t.NumFeatures,
		NumClasses:   t.NumClasses,
		FeatureNames: t.FeatureNames,
	}
	pruned.Root = pruneNode(t.Root, maxDepth)
	pruned.importances = computeImportances(pruned.Root, pruned.NumFeatures)
	return pruned
}

func pruneNode(n *Node, budget int) *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Counts = append([]int(nil), n.Counts...)
	if n.IsLeaf() {
		return &c
	}
	if budget <= 0 {
		c.Feature = -1
		c.Left, c.Right = nil, nil
		return &c
	}
	c.Left = pruneNode(n.Left, budget-1)
	c.Right = pruneNode(n.Right, budget-1)
	return &c
}

// Importances returns the normalized Gini feature importances: each
// feature's total impurity decrease, weighted by the fraction of samples
// reaching the splitting node, normalized to sum to 1 (all zeros if the
// tree never splits). This drives the paper's feature-reduction analysis
// (Fig. 8 and Fig. 9).
func (t *Tree) Importances() []float64 {
	if t.importances == nil {
		t.importances = computeImportances(t.Root, t.NumFeatures)
	}
	return append([]float64(nil), t.importances...)
}

func computeImportances(root *Node, numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	if root == nil || root.Samples == 0 {
		return imp
	}
	total := float64(root.Samples)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		nl, nr := float64(n.Left.Samples), float64(n.Right.Samples)
		nn := float64(n.Samples)
		decrease := n.Impurity - (nl/nn)*n.Left.Impurity - (nr/nn)*n.Right.Impurity
		imp[n.Feature] += (nn / total) * decrease
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if sum > 0 {
		for i := range imp {
			imp[i] /= sum
		}
	}
	return imp
}

// featureName returns a printable name for feature i.
func (t *Tree) featureName(i int) string {
	if i >= 0 && i < len(t.FeatureNames) {
		return t.FeatureNames[i]
	}
	return fmt.Sprintf("x[%d]", i)
}

// String renders the tree as indented text, in the style of the paper's
// Fig. 4 example model.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, indent string)
	walk = func(n *Node, indent string) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%spredict class %d (samples=%d)\n", indent, n.Label, n.Samples)
			return
		}
		fmt.Fprintf(&b, "%sif %s <= %g:\n", indent, t.featureName(n.Feature), n.Threshold)
		walk(n.Left, indent+"  ")
		fmt.Fprintf(&b, "%selse:\n", indent)
		walk(n.Right, indent+"  ")
	}
	walk(t.Root, "")
	return b.String()
}
