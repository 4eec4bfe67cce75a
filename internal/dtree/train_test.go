package dtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"apollo/internal/dataset"
)

// checkFit fails unless every internal node of tree has two non-empty
// children whose Samples and Counts sum to the node's, and Predict routes
// each training row through exactly the nodes whose Samples and Counts
// it was counted in.
func checkFit(t *testing.T, tree *Tree, X [][]float64, y []int) {
	t.Helper()
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		if n.Left == nil || n.Right == nil || n.Left.Samples == 0 || n.Right.Samples == 0 ||
			n.Left.Samples+n.Right.Samples != n.Samples {
			t.Fatalf("node on feature %d at %v does not separate its %d samples", n.Feature, n.Threshold, n.Samples)
		}
		for c := range n.Counts {
			if n.Left.Counts[c]+n.Right.Counts[c] != n.Counts[c] {
				t.Fatalf("node on feature %d: class %d counts do not add up", n.Feature, c)
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
	reached := map[*Node][]int{}
	for i, x := range X {
		n := tree.Root
		for {
			if reached[n] == nil {
				reached[n] = make([]int, tree.NumClasses)
			}
			reached[n][y[i]]++
			if n.IsLeaf() {
				break
			}
			if x[n.Feature] <= n.Threshold {
				n = n.Left
			} else {
				n = n.Right
			}
		}
	}
	for n, counts := range reached {
		if fmt.Sprint(counts) != fmt.Sprint(n.Counts) {
			t.Fatalf("Predict routes %v to the node on feature %d, which counted %v", counts, n.Feature, n.Counts)
		}
	}
}

// sameTree fails unless Train and referenceTrain agree on the set: both
// refuse it, or both fit it to the same bytes. The reference takes the
// midpoint guard, so its trees never hold an empty child and the bytes
// are compared on every set.
func sameTree(t *testing.T, X [][]float64, y []int, numClasses int, cfg Config) {
	t.Helper()
	got, err := Train(X, y, numClasses, cfg)
	want, refErr := referenceTrain(X, y, numClasses, cfg)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Train error %v, reference error %v", err, refErr)
	}
	if err != nil {
		return
	}
	checkFit(t, got, X, y)
	gb, _ := got.MarshalJSON()
	wb, _ := want.MarshalJSON()
	if !bytes.Equal(gb, wb) {
		t.Fatalf("cfg %+v: Train and referenceTrain differ\n got %s\nwant %s", cfg, gb, wb)
	}
}

// diffSet draws a set mixing the column kinds the fit must agree on:
// constant, few distinct values with ties and both zeros, and continuous.
func diffSet(rng *dataset.RNG, numClasses int) ([][]float64, []int) {
	n, f := 1+rng.Intn(150), 1+rng.Intn(6)
	kinds := make([]int, f)
	for j := range kinds {
		kinds[j] = rng.Intn(3)
	}
	pool := []float64{math.Copysign(0, -1), 0, -1.5, 2, 3, 1e-300, -7}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = make([]float64, f)
		for j := range X[i] {
			switch kinds[j] {
			case 0:
				X[i][j] = 4
			case 1:
				X[i][j] = pool[rng.Intn(len(pool))]
			default:
				X[i][j] = rng.Float64()*2e3 - 1e3
			}
		}
		y[i] = rng.Intn(numClasses)
		if rng.Intn(3) > 0 && X[i][0] > 1 {
			y[i] = numClasses - 1 // some structure for the splits to find
		}
	}
	return X, y
}

func TestTrainMatchesReference(t *testing.T) {
	rng := dataset.NewRNG(38)
	configs := []Config{
		{},
		{MaxDepth: 3},
		{MinSamplesLeaf: 5},
		{MinSamplesSplit: 10, MinImpurityDecrease: 0.01},
		{MaxDepth: 6, MinSamplesLeaf: 2, MinImpurityDecrease: 0.001},
	}
	for trial := 0; trial < 300; trial++ {
		numClasses := 2 + 2*rng.Intn(2)
		X, y := diffSet(rng, numClasses)
		sameTree(t, X, y, numClasses, configs[trial%len(configs)])
	}
	for _, set := range []func(uint64) ([][]float64, []int){loopShaped, continuous} {
		X, y := set(1)
		sameTree(t, X, y, 2, Config{})
	}
}

// TestTrainSeparatesAdjacentFloats: two samples one float apart, where
// v+(next-v)/2 rounds up to next. The split must still separate them.
func TestTrainSeparatesAdjacentFloats(t *testing.T) {
	v := math.Nextafter(1, 2)
	X := [][]float64{{v}, {math.Nextafter(v, 2)}, {v}, {math.Nextafter(v, 2)}}
	y := []int{0, 1, 0, 1}
	for _, depth := range []int{5, 0} {
		tree, err := Train(X, y, 2, Config{MaxDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		checkFit(t, tree, X, y)
		if tree.Root.Threshold != v || tree.Accuracy(X, y) != 1 {
			t.Errorf("MaxDepth %d: threshold %v, accuracy %g; want %v and 1", depth, tree.Root.Threshold, tree.Accuracy(X, y), v)
		}
	}
	// The midpoint of the widest gap overflows; v is the threshold then.
	X = [][]float64{{-math.MaxFloat64}, {math.MaxFloat64}}
	tree, err := Train(X, []int{0, 1}, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkFit(t, tree, X, []int{0, 1})
}

func TestTrainRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		X := [][]float64{{1, 2}, {3, 4}, {5, bad}}
		_, err := Train(X, []int{0, 1, 0}, 2, Config{})
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("sample 2 has feature 1")) {
			t.Errorf("feature %v: error %v, want one naming sample 2, feature 1", bad, err)
		}
	}
}

// fuzzSet decodes a training set: per value one byte, mostly a small
// value (ties), sometimes -0, adjacent floats, or eight raw bytes (which
// may be NaN or an infinity); per row one more byte for the label.
func fuzzSet(data []byte, numFeatures, numClasses int) ([][]float64, []int) {
	var X [][]float64
	var y []int
	for {
		row := make([]float64, numFeatures)
		for j := range row {
			if len(data) == 0 {
				return X, y
			}
			b := data[0]
			data = data[1:]
			switch {
			case b == 0xf0:
				row[j] = math.Copysign(0, -1)
			case b == 0xf1:
				row[j] = math.Nextafter(1, 2)
			case b == 0xf2:
				row[j] = math.Nextafter(math.Nextafter(1, 2), 2)
			case b > 0xf2 && len(data) >= 8:
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			default:
				row[j] = float64(int(b%16)-8) / 2
			}
		}
		if len(data) == 0 {
			return X, y
		}
		X = append(X, row)
		y = append(y, int(data[0])%numClasses)
		data = data[1:]
	}
}

// FuzzTrain holds Train to referenceTrain on arbitrary small sets and
// configurations, and every tree it fits to checkFit's invariants.
func FuzzTrain(f *testing.F) {
	f.Add([]byte{0xf1, 0, 0xf2, 1, 0xf1, 0, 0xf2, 1}, uint8(1), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{1, 2, 0, 3, 4, 1, 0xf0, 4, 1, 0, 0, 0}, uint8(2), uint8(2), uint8(5), uint8(1), uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint8(4), uint8(3), uint8(2), uint8(1))
	f.Add(append([]byte{0xff, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1}, 0, 1), uint8(1), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nf, nc, depth, leaf, dec uint8) {
		numFeatures, numClasses := 1+int(nf%4), 2+int(nc%3)
		X, y := fuzzSet(data, numFeatures, numClasses)
		if len(X) == 0 {
			return
		}
		cfg := Config{MaxDepth: int(depth % 8), MinSamplesLeaf: int(leaf % 4), MinImpurityDecrease: float64(dec%4) / 20}
		sameTree(t, X, y, numClasses, cfg)
	})
}

func BenchmarkTrain(b *testing.B) {
	for _, set := range []struct {
		name string
		make func(uint64) ([][]float64, []int)
	}{{"loop", loopShaped}, {"continuous", continuous}} {
		X, y := set.make(1)
		for _, fit := range []struct {
			name  string
			train func([][]float64, []int, int, Config) (*Tree, error)
		}{{"rank", Train}, {"reference", referenceTrain}} {
			b.Run(set.name+"/"+fit.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := fit.train(X, y, 2, Config{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
