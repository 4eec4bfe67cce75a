package ctree

import (
	"apollo/internal/dtree"
	"math/rand"
	"testing"
)

// newBenchFixture builds a production-shaped policy model: a full
// balanced tree deep enough that its node set dwarfs L2, so the
// interpreted walk pays its pointer-chasing cache misses the way a real
// cache-miss predict does, while every lookup still walks the same
// number of levels in both representations. Thresholds are drawn from
// the same distribution as the probe vectors so both branches stay live.
func newBenchFixture(b *testing.B) (ct *Tree, X [][]float64, interp func([]float64) int) {
	rng := rand.New(rand.NewSource(1))
	const depth, numFeatures = 15, 12
	var grow func(d int) *dtree.Node
	grow = func(d int) *dtree.Node {
		if d == depth {
			return &dtree.Node{Feature: -1, Label: rng.Intn(4)}
		}
		return &dtree.Node{
			Feature:   rng.Intn(numFeatures),
			Threshold: rng.NormFloat64(),
			Left:      grow(d + 1),
			Right:     grow(d + 1),
		}
	}
	dt := &dtree.Tree{Root: grow(0), NumFeatures: numFeatures, NumClasses: 4}
	var err error
	ct, err = Compile(dt)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	X = make([][]float64, 512)
	for i := range X {
		x := make([]float64, numFeatures)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		X[i] = x
	}
	return ct, X, dt.Predict
}

// BenchmarkInterpretedPredict is the baseline: the pointer-chasing dtree
// walk every cache-miss decision used to pay.
func BenchmarkInterpretedPredict(b *testing.B) {
	_, X, interp := newBenchFixture(b)
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += interp(X[i&511])
	}
	_ = sink
}

// BenchmarkCompiledPredict is the flat SoA walk.
func BenchmarkCompiledPredict(b *testing.B) {
	ct, X, _ := newBenchFixture(b)
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += ct.Predict(X[i&511])
	}
	_ = sink
}

// BenchmarkBatchedPredictN amortizes one compiled walk over a vector of
// launches; ns/launch is the per-decision cost.
func BenchmarkBatchedPredictN(b *testing.B) {
	ct, X, _ := newBenchFixture(b)
	out := make([]int, len(X))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.PredictN(X, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(X)), "ns/launch")
}

// BenchmarkPredictOffsets is the flight-recorder trail encoding cost.
func BenchmarkPredictOffsets(b *testing.B) {
	ct, X, _ := newBenchFixture(b)
	var offs [25]int32
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		_, n := ct.PredictOffsets(X[i&511], offs[:])
		sink += n
	}
	_ = sink
}
