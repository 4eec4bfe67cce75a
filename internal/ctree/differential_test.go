package ctree

import (
	"math"
	"math/rand"
	"testing"

	"apollo/internal/dtree"
)

// thresholdPool mixes ordinary splits with the boundary values where a
// compiled comparison could plausibly diverge from the interpreted one:
// exact-equality thresholds, subnormals, infinities, and NaN (a NaN
// threshold makes every comparison false, sending everything right).
var thresholdPool = []float64{
	0, 1, -1, 0.5, 10, -10, 1e-9, -1e-9, 1e9,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// valuePool feeds vectors with the same boundary values plus exact
// threshold hits, so `<=` ties are exercised on every tree.
var valuePool = append([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}, thresholdPool[:9]...)

// randTree grows a random tree: random split features/thresholds, leaf
// probability rising with depth.
func randTree(rng *rand.Rand, numFeatures, numClasses, maxDepth int) *dtree.Tree {
	var grow func(depth int) *dtree.Node
	grow = func(depth int) *dtree.Node {
		if depth >= maxDepth || rng.Float64() < 0.25 {
			return &dtree.Node{Feature: -1, Label: rng.Intn(numClasses)}
		}
		return &dtree.Node{
			Feature:   rng.Intn(numFeatures),
			Threshold: thresholdPool[rng.Intn(len(thresholdPool))],
			Left:      grow(depth + 1),
			Right:     grow(depth + 1),
		}
	}
	return &dtree.Tree{Root: grow(0), NumFeatures: numFeatures, NumClasses: numClasses}
}

func randVector(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Float64() < 0.5 {
			x[i] = valuePool[rng.Intn(len(valuePool))]
		} else {
			x[i] = rng.NormFloat64() * 10
		}
	}
	return x
}

func stepsEqual(a, b dtree.TrailStep) bool {
	feq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Feature == b.Feature && a.Right == b.Right &&
		feq(a.Threshold, b.Threshold) && feq(a.Value, b.Value)
}

// thresholdsOf collects every split (feature, threshold) of a tree.
func thresholdsOf(n *dtree.Node, out [][2]float64) [][2]float64 {
	if n == nil || n.IsLeaf() {
		return out
	}
	out = append(out, [2]float64{float64(n.Feature), n.Threshold})
	return thresholdsOf(n.Right, thresholdsOf(n.Left, out))
}

// checkTrail asserts the one trail form against the interpreted
// reference: DecodeOffsets(PredictOffsets(x)) must reproduce
// dtree.PredictTrail(x) step for step, through a buffer of the given
// capacity (a short one exercises truncated trails, whose last recorded
// step has no successor offset to read its direction from).
func checkTrail(t *testing.T, dt *dtree.Tree, ct *Tree, x []float64, capacity int) {
	t.Helper()
	trailI := make([]dtree.TrailStep, capacity)
	wantLabel, wantSteps := dt.PredictTrail(x, trailI)
	offs := make([]int32, capacity) // no room for the successor of a full trail's last step
	label, n := ct.PredictOffsets(x, offs)
	if label != wantLabel {
		t.Fatalf("x=%v cap=%d: offsets label %d, interpreted %d", x, capacity, label, wantLabel)
	}
	decoded := make([]dtree.TrailStep, capacity)
	steps := ct.DecodeOffsets(offs[:n], nil, x, decoded)
	if steps != wantSteps {
		t.Fatalf("x=%v cap=%d: decoded %d steps, interpreted %d", x, capacity, steps, wantSteps)
	}
	for s := 0; s < steps; s++ {
		if !stepsEqual(decoded[s], trailI[s]) {
			t.Fatalf("x=%v cap=%d step %d: decoded %+v, interpreted %+v", x, capacity, s, decoded[s], trailI[s])
		}
	}
}

// TestCompiledMatchesInterpreted is the differential property test the
// whole subsystem rests on: on randomized trees and vectors (including
// NaN, infinities, and the floats adjacent to every threshold), every
// compiled evaluation mode — walk, batched, offset-recording — must
// agree exactly with the interpreted dtree walk, and the decoded offset
// trail with the interpreted trail.
func TestCompiledMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trees, vectors = 150, 100
	for ti := 0; ti < trees; ti++ {
		numFeatures := 1 + rng.Intn(8)
		dt := randTree(rng, numFeatures, 1+rng.Intn(5), 1+rng.Intn(8))
		ct, err := Compile(dt)
		if err != nil {
			t.Fatalf("tree %d: Compile: %v", ti, err)
		}
		X := make([][]float64, vectors)
		for i := range X {
			X[i] = randVector(rng, numFeatures)
		}
		// Boundary probes: each split's threshold and its two float
		// neighbours, planted in an otherwise random vector.
		for _, ft := range thresholdsOf(dt.Root, nil) {
			for _, v := range []float64{ft[1], math.Nextafter(ft[1], math.Inf(1)), math.Nextafter(ft[1], math.Inf(-1))} {
				x := randVector(rng, numFeatures)
				x[int(ft[0])] = v
				X = append(X, x)
			}
		}
		batched := make([]int, len(X))
		ct.PredictN(X, batched)
		for vi, x := range X {
			want := dt.Predict(x)
			if got := ct.Predict(x); got != want {
				t.Fatalf("tree %d vec %d (%v): compiled %d, interpreted %d", ti, vi, x, got, want)
			}
			if batched[vi] != want {
				t.Fatalf("tree %d vec %d (%v): batched %d, interpreted %d", ti, vi, x, batched[vi], want)
			}
			checkTrail(t, dt, ct, x, 64)
			checkTrail(t, dt, ct, x, 3)
		}
	}
}

// FuzzCompiledPredict lets the fuzzer drive both the tree shape (via the
// seed) and the vector bytes.
func FuzzCompiledPredict(f *testing.F) {
	f.Add(int64(1), uint64(0x7ff8000000000001), uint64(42), uint64(1<<63))
	f.Add(int64(99), uint64(0), uint64(0xfff0000000000000), uint64(0x3ff0000000000000))
	f.Fuzz(func(t *testing.T, seed int64, b0, b1, b2 uint64) {
		rng := rand.New(rand.NewSource(seed))
		numFeatures := 1 + rng.Intn(6)
		dt := randTree(rng, numFeatures, 4, 7)
		ct, err := Compile(dt)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		raw := []uint64{b0, b1, b2}
		x := make([]float64, numFeatures)
		for i := range x {
			x[i] = math.Float64frombits(raw[i%len(raw)] ^ uint64(i)*0x9e3779b97f4a7c15)
		}
		want := dt.Predict(x)
		if got := ct.Predict(x); got != want {
			t.Fatalf("compiled %d, interpreted %d on %v", got, want, x)
		}
		checkTrail(t, dt, ct, x, 127)
		checkTrail(t, dt, ct, x, 2)
	})
}
