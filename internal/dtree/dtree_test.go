package dtree

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"apollo/internal/dataset"
)

// thresholdData builds a 1-D dataset separable at x = 50.
func thresholdData(n int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	rng := dataset.NewRNG(3)
	for i := range X {
		v := rng.Float64() * 100
		X[i] = []float64{v}
		if v > 50 {
			y[i] = 1
		}
	}
	return X, y
}

// xorData builds a 2-D dataset requiring at least depth 2.
func xorData() ([][]float64, []int) {
	var X [][]float64
	var y []int
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for rep := 0; rep < 10; rep++ {
				X = append(X, []float64{float64(a) + float64(rep)*0.01, float64(b) + float64(rep)*0.01})
				y = append(y, a^b)
			}
		}
	}
	return X, y
}

func TestTrainSeparableDataPerfect(t *testing.T) {
	X, y := thresholdData(200)
	tree, err := Train(X, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(X, y); acc != 1 {
		t.Errorf("training accuracy = %g, want 1 on separable data", acc)
	}
	// The learned threshold must sit near the true boundary.
	if tree.Root.IsLeaf() {
		t.Fatal("tree did not split")
	}
	if th := tree.Root.Threshold; th < 40 || th > 60 {
		t.Errorf("root threshold %g far from 50", th)
	}
}

func TestTrainXORNeedsDepthTwo(t *testing.T) {
	X, y := xorData()
	tree, err := Train(X, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(X, y); acc != 1 {
		t.Errorf("XOR accuracy = %g", acc)
	}
	if d := tree.Depth(); d < 2 {
		t.Errorf("XOR tree depth = %d, want >= 2", d)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, 2, Config{}); err == nil {
		t.Error("empty training set should fail")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := Train([][]float64{{1}}, []int{5}, 2, Config{}); err == nil {
		t.Error("out-of-range label should fail")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{0, 1}, 2, Config{}); err == nil {
		t.Error("ragged features should fail")
	}
	if _, err := Train([][]float64{{1}}, []int{0}, 1, Config{}); err == nil {
		t.Error("single class should fail")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	X, y := thresholdData(500)
	for _, maxDepth := range []int{1, 2, 3, 5} {
		tree, err := Train(X, y, 2, Config{MaxDepth: maxDepth})
		if err != nil {
			t.Fatal(err)
		}
		if d := tree.Depth(); d > maxDepth {
			t.Errorf("MaxDepth=%d produced depth %d", maxDepth, d)
		}
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	X, y := thresholdData(100)
	tree, err := Train(X, y, 2, Config{MinSamplesLeaf: 10})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() && n.Samples < 10 {
			t.Errorf("leaf with %d samples violates MinSamplesLeaf", n.Samples)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}

func TestPredictIsMajorityOfLeafProperty(t *testing.T) {
	X, y := thresholdData(300)
	tree, err := Train(X, y, 2, Config{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		x := []float64{float64(raw) / 655.35}
		leaf := tree.Root
		for !leaf.IsLeaf() {
			if x[leaf.Feature] <= leaf.Threshold {
				leaf = leaf.Left
			} else {
				leaf = leaf.Right
			}
		}
		// The prediction must be the majority class of the leaf.
		best, bestN := 0, -1
		for c, n := range leaf.Counts {
			if n > bestN {
				best, bestN = c, n
			}
		}
		return tree.Predict(x) == best
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeInvariants(t *testing.T) {
	X, y := xorData()
	tree, _ := Train(X, y, 2, Config{})
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		total := 0
		for _, c := range n.Counts {
			total += c
		}
		if total != n.Samples {
			t.Errorf("counts sum %d != samples %d", total, n.Samples)
		}
		if n.Impurity < 0 || n.Impurity > 1 {
			t.Errorf("impurity %g outside [0,1]", n.Impurity)
		}
		if !n.IsLeaf() {
			if n.Left.Samples+n.Right.Samples != n.Samples {
				t.Error("children don't partition parent samples")
			}
			walk(n.Left)
			walk(n.Right)
		}
	}
	walk(tree.Root)
}

func TestPruneToDepth(t *testing.T) {
	X, y := thresholdData(500)
	tree, _ := Train(X, y, 2, Config{})
	full := tree.Depth()
	for d := 0; d <= full; d++ {
		pruned := tree.PruneToDepth(d)
		if pd := pruned.Depth(); pd > d {
			t.Errorf("PruneToDepth(%d) has depth %d", d, pd)
		}
		// Pruning must not change the sample counts at the root.
		if pruned.Root.Samples != tree.Root.Samples {
			t.Error("pruning changed root samples")
		}
	}
	// Pruning never improves training accuracy beyond the full tree.
	p1 := tree.PruneToDepth(1)
	if p1.Accuracy(X, y) > tree.Accuracy(X, y)+1e-12 {
		t.Error("pruned tree more accurate than full tree on training data")
	}
	// Original tree unchanged.
	if tree.Depth() != full {
		t.Error("PruneToDepth mutated the original")
	}
}

func TestPruneNeverDeepensProperty(t *testing.T) {
	X, y := xorData()
	tree, _ := Train(X, y, 2, Config{})
	f := func(dRaw uint8) bool {
		d := int(dRaw) % 10
		return tree.PruneToDepth(d).Depth() <= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImportancesSumToOne(t *testing.T) {
	X, y := xorData()
	tree, _ := Train(X, y, 2, Config{})
	imp := tree.Importances()
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Errorf("negative importance %g", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importances sum to %g, want 1", sum)
	}
}

func TestImportanceIdentifiesUsefulFeature(t *testing.T) {
	// Feature 0 decides the label; feature 1 is constant noise.
	X, y := thresholdData(300)
	for i := range X {
		X[i] = append(X[i], 7)
	}
	tree, _ := Train(X, y, 2, Config{})
	imp := tree.Importances()
	if imp[0] < 0.99 {
		t.Errorf("informative feature importance = %g, want ~1", imp[0])
	}
	if imp[1] != 0 {
		t.Errorf("constant feature importance = %g, want 0", imp[1])
	}
}

func TestImportancesAllZeroForStump(t *testing.T) {
	// All labels identical -> no split -> zero importances.
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tree, err := Train(X, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Fatal("pure data should give a leaf root")
	}
	for _, v := range tree.Importances() {
		if v != 0 {
			t.Errorf("stump importance %g != 0", v)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	X, y := xorData()
	tree, _ := Train(X, y, 2, Config{FeatureNames: []string{"a", "b"}})
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumFeatures != 2 || back.NumClasses != 2 {
		t.Error("shape lost in round trip")
	}
	for i, x := range X {
		if back.Predict(x) != tree.Predict(x) {
			t.Errorf("prediction %d changed after round trip", i)
		}
	}
	if back.FeatureNames[0] != "a" {
		t.Error("feature names lost")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	var tr Tree
	if err := json.Unmarshal([]byte(`{"format":"other"}`), &tr); err == nil {
		t.Error("wrong format accepted")
	}
	if err := json.Unmarshal([]byte(`{"format":"apollo-dtree-v1"}`), &tr); err == nil {
		t.Error("missing root accepted")
	}
	bad := `{"format":"apollo-dtree-v1","num_features":1,"num_classes":2,
	         "root":{"feature":5,"label":0,"left":{"feature":-1,"label":0},"right":{"feature":-1,"label":1}}}`
	if err := json.Unmarshal([]byte(bad), &tr); err == nil {
		t.Error("out-of-range split feature accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	X, y := thresholdData(100)
	tree, _ := Train(X, y, 2, Config{})
	path := filepath.Join(t.TempDir(), "model.json")
	if err := tree.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Accuracy(X, y) != tree.Accuracy(X, y) {
		t.Error("loaded tree disagrees with saved tree")
	}
}

func TestStringRendersConditions(t *testing.T) {
	X, y := thresholdData(100)
	tree, _ := Train(X, y, 2, Config{FeatureNames: []string{"num_indices"}, MaxDepth: 2})
	s := tree.String()
	if len(s) == 0 {
		t.Fatal("empty rendering")
	}
	if want := "if num_indices <= "; !contains(s, want) {
		t.Errorf("rendering lacks %q:\n%s", want, s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCountsMetrics(t *testing.T) {
	X, y := xorData()
	tree, _ := Train(X, y, 2, Config{})
	if tree.NumNodes() != tree.NumLeaves()*2-1 {
		t.Errorf("binary tree invariant violated: nodes=%d leaves=%d", tree.NumNodes(), tree.NumLeaves())
	}
}

func TestTrainDeterministic(t *testing.T) {
	X, y := thresholdData(300)
	a, err := Train(X, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(X, y, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("training is not deterministic")
	}
}

func TestMarshalIdempotent(t *testing.T) {
	X, y := xorData()
	tree, _ := Train(X, y, 2, Config{})
	d1, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(d1, &back); err != nil {
		t.Fatal(err)
	}
	d2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Error("marshal -> unmarshal -> marshal changed the encoding")
	}
}
