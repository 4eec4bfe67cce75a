package core

import (
	"math"
	"testing"

	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/raja"
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
	m, err := NewModel(ExecutionPolicy, features.NewSchema(features.NumIndices, "gone", "stride"),
		&dtree.Tree{
			Root: split(0, 100,
				split(1, -1, leaf(0), split(2, 4, leaf(1), leaf(0))),
				split(1, 5, split(2, 2, leaf(0), leaf(1)), leaf(1))),
			NumFeatures: 3, NumClasses: 2,
		})
	if err != nil {
		t.Fatal(err)
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

// NewModel is the constructor door of the model boundary: a tree that
// contradicts the header it is built under never becomes a Model, so no
// projector or walk can be handed one.
func TestNewModelRejectsMalformedTree(t *testing.T) {
	leaf := func(label int) *dtree.Node { return &dtree.Node{Feature: -1, Label: label} }
	stump := func(f int, l, r *dtree.Node) *dtree.Node {
		return &dtree.Node{Feature: f, Threshold: 10, Left: l, Right: r}
	}
	one := features.NewSchema(features.NumIndices)
	for _, tc := range []struct {
		name   string
		param  Parameter
		schema *features.Schema
		tree   *dtree.Tree
	}{
		{"nil tree", ExecutionPolicy, one, nil},
		{"nil schema", ExecutionPolicy, nil, &dtree.Tree{Root: leaf(0)}},
		{"nil root", ExecutionPolicy, one, &dtree.Tree{NumFeatures: 1, NumClasses: 2}},
		{"tree wider than header", ExecutionPolicy, one,
			&dtree.Tree{Root: stump(40, leaf(0), leaf(1)), NumFeatures: 50, NumClasses: 2}},
		{"tree narrower than header", ExecutionPolicy, features.NewSchema("a", "b"),
			&dtree.Tree{Root: stump(0, leaf(0), leaf(1)), NumFeatures: 1, NumClasses: 2}},
		{"undeclared width, split past the header", ExecutionPolicy, features.NewSchema(),
			&dtree.Tree{Root: stump(5, leaf(0), leaf(1)), NumClasses: 2}},
		{"split past the width", ExecutionPolicy, one,
			&dtree.Tree{Root: stump(0, leaf(1), stump(3, leaf(0), leaf(0))), NumFeatures: 1, NumClasses: 2}},
		{"missing child", ExecutionPolicy, one,
			&dtree.Tree{Root: stump(0, leaf(0), nil), NumFeatures: 1, NumClasses: 2}},
		{"negative label", ExecutionPolicy, one,
			&dtree.Tree{Root: stump(0, leaf(0), leaf(-2)), NumFeatures: 1, NumClasses: 2}},
		{"policy class out of range", ExecutionPolicy, one,
			&dtree.Tree{Root: stump(0, leaf(0), leaf(2)), NumFeatures: 1, NumClasses: 3}},
		{"chunk class out of range", ChunkSize, one,
			&dtree.Tree{Root: leaf(len(raja.ChunkSizes)), NumFeatures: 1, NumClasses: 64}},
	} {
		if m, err := NewModel(tc.param, tc.schema, tc.tree); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, m)
		}
	}
	// The last in-range class of each parameter is accepted.
	if _, err := NewModel(ChunkSize, one,
		&dtree.Tree{Root: leaf(len(raja.ChunkSizes) - 1), NumFeatures: 1, NumClasses: len(raja.ChunkSizes)}); err != nil {
		t.Errorf("last chunk class rejected: %v", err)
	}
}

// A model is compiled once: every projector built on it, and Compiled
// itself, hand out the same tree.
func TestModelCompiledOnce(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	m, err := Train(set, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Compiled() == nil {
		t.Fatal("trained model carries no compiled tree")
	}
	a, b := m.NewProjector(schema), m.NewProjector(features.TableI())
	if a.Compiled() != m.Compiled() || b.Compiled() != m.Compiled() {
		t.Error("projectors compiled their own trees")
	}
	// A struct literal bypasses the boundary; projector construction —
	// not an application's launch — is where that surfaces.
	defer func() {
		if recover() == nil {
			t.Error("NewProjector accepted a model literal")
		}
	}()
	(&Model{Param: m.Param, Schema: m.Schema, Tree: m.Tree}).NewProjector(schema)
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
