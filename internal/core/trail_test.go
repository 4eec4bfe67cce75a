package core

import (
	"math"
	"testing"

	"apollo/internal/dtree"
	"apollo/internal/features"
)

// decodeProjected renders a projector's offset trail the way the flight
// capture does: against the compiled layout, with the projector's
// model→source mapping and the source-layout vector.
func decodeProjected(proj *Projector, source []float64, capacity int) (class int, trail []dtree.TrailStep) {
	offs := make([]int32, capacity+1)
	class, n := proj.PredictOffsets(source, offs)
	trail = make([]dtree.TrailStep, capacity)
	steps := proj.Compiled().DecodeOffsets(offs[:n], proj.SourceIndex(), source, trail)
	return class, trail[:steps]
}

// The projector's offset trail, decoded, must equal the interpreted
// reference trail (dtree.PredictTrail on the projected vector) with
// feature indices translated back to the source schema, so one name
// table explains decisions from any reduced model.
func TestProjectorPredictTrail(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	m, err := Train(set, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	source := features.NewSchema("extra", features.NumIndices, "pad")
	proj := m.NewProjector(source)
	srcIdx := source.Index(features.NumIndices)

	want := make([]dtree.TrailStep, 32)
	for _, n := range []float64{10, 800, 1500, 60000, math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := []float64{-1, n, -2}
		class, trail := decodeProjected(proj, x, 32)
		if class != proj.Predict(x) {
			t.Errorf("n=%g: trail class %d != predict %d", n, class, proj.Predict(x))
		}
		wantClass, wantSteps := m.Tree.PredictTrail([]float64{n}, want)
		if class != wantClass || len(trail) != wantSteps || wantSteps == 0 {
			t.Fatalf("n=%g: decoded (%d, %d steps), interpreted (%d, %d steps)", n, class, len(trail), wantClass, wantSteps)
		}
		for i, s := range trail {
			w := want[i]
			// The only model feature is num_indices; every step must
			// report its *source* index and the source value.
			if int(s.Feature) != srcIdx {
				t.Errorf("n=%g step %d: feature index %d, want source index %d", n, i, s.Feature, srcIdx)
			}
			sameValue := s.Value == w.Value || (math.IsNaN(s.Value) && math.IsNaN(w.Value))
			if !sameValue || s.Threshold != w.Threshold || s.Right != w.Right {
				t.Errorf("n=%g step %d: decoded %+v, interpreted %+v", n, i, s, w)
			}
		}
	}
}

// A reduced source schema that lacks a model feature projects it as
// zero: the decoded trail reports feature -1 with the zero the walk saw,
// at every truncation length, exactly as the interpreted walk over the
// projected vector does.
func TestProjectorPredictTrailAbsentFeature(t *testing.T) {
	leaf := func(label int) *dtree.Node { return &dtree.Node{Feature: -1, Label: label} }
	split := func(f int, th float64, l, r *dtree.Node) *dtree.Node {
		return &dtree.Node{Feature: f, Threshold: th, Left: l, Right: r}
	}
	m := &Model{
		Param:  ExecutionPolicy,
		Schema: features.NewSchema(features.NumIndices, "gone", "stride"),
		Tree: &dtree.Tree{
			Root: split(0, 100,
				split(1, -1, leaf(0), split(2, 4, leaf(1), leaf(0))),
				split(1, 5, split(2, 2, leaf(0), leaf(1)), leaf(1))),
			NumFeatures: 3, NumClasses: 2,
		},
	}
	source := features.NewSchema("stride", features.NumIndices) // no "gone"
	proj := m.NewProjector(source)
	if got := proj.SourceIndex(); got[0] != 1 || got[1] != -1 || got[2] != 0 {
		t.Fatalf("SourceIndex = %v, want [1 -1 0]", got)
	}
	for _, x := range [][]float64{{1, 50}, {8, 50}, {1, 500}, {3, 500}, {math.NaN(), math.Nextafter(100, 200)}} {
		projected := []float64{x[1], 0, x[0]}
		for capacity := 1; capacity <= 4; capacity++ {
			want := make([]dtree.TrailStep, capacity)
			wantClass, wantSteps := m.Tree.PredictTrail(projected, want)
			class, trail := decodeProjected(proj, x, capacity)
			if class != wantClass || len(trail) != wantSteps {
				t.Fatalf("x=%v cap=%d: decoded (%d, %d steps), interpreted (%d, %d)", x, capacity, class, len(trail), wantClass, wantSteps)
			}
			for i, s := range trail {
				w := want[i]
				w.Feature = proj.SourceIndex()[w.Feature]
				sameValue := s.Value == w.Value || (math.IsNaN(s.Value) && math.IsNaN(w.Value))
				if s.Feature != w.Feature || !sameValue || s.Threshold != w.Threshold || s.Right != w.Right {
					t.Errorf("x=%v cap=%d step %d: decoded %+v, interpreted %+v", x, capacity, i, s, w)
				}
			}
		}
	}
}

// A projector whose tree the compiler rejects still decides (interpreted)
// and records no trail.
func TestProjectorRejectedCompileRecordsNoTrail(t *testing.T) {
	m := &Model{
		Param:  ExecutionPolicy,
		Schema: features.NewSchema(features.NumIndices),
		// Feature index 3 is out of range for a one-feature tree: the
		// compiler refuses it, the interpreted walk never gets there.
		Tree: &dtree.Tree{
			Root: &dtree.Node{Feature: 0, Threshold: 10,
				Left:  &dtree.Node{Feature: -1, Label: 1},
				Right: &dtree.Node{Feature: 3, Threshold: 1, Left: &dtree.Node{Feature: -1}, Right: &dtree.Node{Feature: -1}}},
			NumFeatures: 1, NumClasses: 2,
		},
	}
	proj := m.NewProjector(m.Schema)
	if proj.Compiled() != nil {
		t.Fatal("malformed tree compiled")
	}
	var offs [8]int32
	class, n := proj.PredictOffsets([]float64{5}, offs[:])
	if class != 1 || n != 0 {
		t.Fatalf("PredictOffsets = (%d, %d offsets), want (1, 0)", class, n)
	}
	if got := proj.Predict([]float64{5}); got != 1 {
		t.Fatalf("Predict = %d, want 1", got)
	}
}

// The projector trail path allocates nothing in steady state.
func TestProjectorPredictTrailAllocFree(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	m, _ := Train(set, TrainConfig{})
	source := features.NewSchema("extra", features.NumIndices, "pad")
	proj := m.NewProjector(source)
	x := []float64{-1, 800, -2}
	var offs [32]int32
	proj.PredictOffsets(x, offs[:]) // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		proj.PredictOffsets(x, offs[:])
	})
	if allocs != 0 {
		t.Errorf("PredictOffsets allocates %.1f objects per run, want 0", allocs)
	}
}
