package ctree

import (
	"math/rand"
	"testing"
)

// The compiled predict path carries //apollo:hotpath: every evaluation
// mode must run allocation-free, enforced here at runtime and by
// apollo-vet statically.
func TestCompiledPredictAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dt := randTree(rng, 6, 4, 10)
	ct, err := Compile(dt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	x := randVector(rng, 6)
	X := make([][]float64, 32)
	for i := range X {
		X[i] = randVector(rng, 6)
	}
	out := make([]int, len(X))
	var offs [25]int32
	sink := 0
	for name, f := range map[string]func(){
		"Predict":        func() { sink += ct.Predict(x) },
		"PredictN":       func() { ct.PredictN(X, out) },
		"PredictOffsets": func() { _, n := ct.PredictOffsets(x, offs[:]); sink += n },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per run, want 0", name, allocs)
		}
	}
	_ = sink
}
