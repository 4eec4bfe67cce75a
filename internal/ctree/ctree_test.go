package ctree

import (
	"math"
	"strings"
	"testing"

	"apollo/internal/dtree"
)

func leaf(label int) *dtree.Node {
	return &dtree.Node{Feature: -1, Label: label}
}

func split(feat int, th float64, l, r *dtree.Node) *dtree.Node {
	return &dtree.Node{Feature: feat, Threshold: th, Left: l, Right: r}
}

func mustCompile(t *testing.T, dt *dtree.Tree) *Tree {
	t.Helper()
	ct, err := Compile(dt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return ct
}

func TestCompileLeafOnly(t *testing.T) {
	ct := mustCompile(t, &dtree.Tree{Root: leaf(2), NumFeatures: 3, NumClasses: 3})
	if got := ct.Predict([]float64{9, 9, 9}); got != 2 {
		t.Fatalf("Predict = %d, want 2", got)
	}
	if got := ct.Predict(nil); got != 2 {
		t.Fatalf("Predict(nil) = %d, want 2 (a leaf-only tree reads no feature)", got)
	}
	var offs [4]int32
	label, n := ct.PredictOffsets(nil, offs[:])
	if label != 2 || n != 1 || offs[0] != ^int32(2) {
		t.Fatalf("PredictOffsets = (%d,%d) offs[0]=%d, want (2,1) %d", label, n, offs[0], ^int32(2))
	}
	var trail [4]dtree.TrailStep
	if steps := ct.DecodeOffsets(offs[:n], nil, nil, trail[:]); steps != 0 {
		t.Fatalf("leaf-only trail decoded %d steps, want 0", steps)
	}
	st := ct.Stats()
	if st.Internal != 0 || st.Leaves != 1 || st.Nodes != 1 || st.FlatBytes != 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestCompileStump(t *testing.T) {
	dt := &dtree.Tree{Root: split(1, 5, leaf(0), leaf(1)), NumFeatures: 2, NumClasses: 2}
	ct := mustCompile(t, dt)
	for _, tc := range []struct {
		v    float64
		want int
	}{{4, 0}, {5, 0}, {6, 1}, {math.NaN(), 1}, {math.Inf(-1), 0}, {math.Inf(1), 1}} {
		x := []float64{0, tc.v}
		if got := ct.Predict(x); got != tc.want {
			t.Errorf("Predict(%v) = %d, want %d", tc.v, got, tc.want)
		}
		out := []int{-1}
		if ct.PredictN([][]float64{x}, out); out[0] != tc.want {
			t.Errorf("PredictN(%v) = %d, want %d", tc.v, out[0], tc.want)
		}
	}
}

func TestCompileSingleFeature(t *testing.T) {
	// Every split tests feature 0: a threshold ladder.
	dt := &dtree.Tree{
		Root:        split(0, 10, split(0, 5, leaf(0), leaf(1)), split(0, 20, leaf(2), leaf(3))),
		NumFeatures: 1,
		NumClasses:  4,
	}
	ct := mustCompile(t, dt)
	for _, tc := range []struct {
		v    float64
		want int
	}{{3, 0}, {5, 0}, {7, 1}, {10, 1}, {15, 2}, {20, 2}, {25, 3}, {math.NaN(), 3}} {
		x := []float64{tc.v}
		if got, want := ct.Predict(x), dt.Predict(x); got != want || got != tc.want {
			t.Errorf("Predict(%v) = %d, interpreted %d, table %d", tc.v, got, want, tc.want)
		}
	}
}

func TestCompilePreorderLayout(t *testing.T) {
	dt := &dtree.Tree{
		Root: split(0, 1,
			split(1, 2, leaf(0), split(2, 3, leaf(1), leaf(2))),
			split(1, 4, leaf(3), leaf(0))),
		NumFeatures: 3, NumClasses: 4,
	}
	ct := mustCompile(t, dt)
	// Left-first preorder: every internal left child sits at offset i+1.
	for i, n := range ct.nodes {
		if l := n.left; l >= 0 && l != int32(i)+1 {
			t.Errorf("node %d: internal left child at %d, want %d", i, l, i+1)
		}
	}
	st := ct.Stats()
	if st.Internal != 4 || st.Leaves != 5 || st.Nodes != 9 || st.Depth != 3 {
		t.Fatalf("Stats = %+v", st)
	}
	if want := 4 * 24; st.FlatBytes != want {
		t.Fatalf("FlatBytes = %d, want %d", st.FlatBytes, want)
	}
}

func TestCompileRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		tree *dtree.Tree
		want string
	}{
		{"nil tree", nil, "nil tree"},
		{"nil root", &dtree.Tree{}, "nil tree"},
		{"missing child", &dtree.Tree{Root: &dtree.Node{Feature: 0, Left: leaf(0)}, NumFeatures: 1}, "missing a child"},
		{"feature out of range", &dtree.Tree{Root: split(5, 1, leaf(0), leaf(1)), NumFeatures: 2}, "out of range"},
		{"negative label", &dtree.Tree{Root: split(0, 1, leaf(-1), leaf(0)), NumFeatures: 1}, "negative label"},
	}
	for _, tc := range cases {
		if _, err := Compile(tc.tree); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCompileDerivesNumFeatures(t *testing.T) {
	// NumFeatures unset on the source tree: derived from the deepest
	// feature index actually referenced.
	dt := &dtree.Tree{Root: split(3, 1, leaf(0), leaf(1))}
	ct := mustCompile(t, dt)
	if ct.NumFeatures() != 4 {
		t.Fatalf("NumFeatures = %d, want 4", ct.NumFeatures())
	}
}

func TestPredictOffsetsTruncation(t *testing.T) {
	// A 5-deep threshold ladder; record into a 3-slot buffer. The walk
	// must still reach the right leaf while recording stops early.
	root := leaf(5)
	for f := 4; f >= 0; f-- {
		root = split(0, float64(f), leaf(f), root)
	}
	dt := &dtree.Tree{Root: root, NumFeatures: 1, NumClasses: 6}
	ct := mustCompile(t, dt)
	x := []float64{9} // always right: visits all 5 internal nodes
	var offs [3]int32
	label, n := ct.PredictOffsets(x, offs[:])
	if label != 5 || n != 3 {
		t.Fatalf("PredictOffsets = (%d,%d), want (5,3)", label, n)
	}
	for _, o := range offs {
		if o < 0 {
			t.Fatalf("truncated trail recorded a leaf ref: %v", offs)
		}
	}
	// Decoding a truncated trail reconstructs each recorded step's
	// direction from the feature value.
	var trail [8]dtree.TrailStep
	steps := ct.DecodeOffsets(offs[:n], nil, x, trail[:])
	if steps != 3 {
		t.Fatalf("DecodeOffsets = %d steps, want 3", steps)
	}
	var full [8]dtree.TrailStep
	_, fullSteps := dt.PredictTrail(x, full[:])
	for i := 0; i < steps; i++ {
		if trail[i] != full[i] {
			t.Errorf("step %d: decoded %+v, walked %+v", i, trail[i], full[i])
		}
	}
	if fullSteps != 5 {
		t.Fatalf("full trail = %d steps, want 5", fullSteps)
	}
}

func TestDecodeOffsetsSourceMapping(t *testing.T) {
	// Model features 0,1 map to source indices 3 and -1 (absent).
	dt := &dtree.Tree{
		Root:        split(0, 1, leaf(0), split(1, 2, leaf(1), leaf(2))),
		NumFeatures: 2, NumClasses: 3,
	}
	ct := mustCompile(t, dt)
	src := []int32{3, -1}
	model := []float64{5, 0}        // model-layout vector the walk sees: the absent feature projects as 0
	source := []float64{0, 0, 0, 5} // source-layout snapshot the recorder kept
	var offs [8]int32
	label, n := ct.PredictOffsets(model, offs[:])
	if label != 1 {
		t.Fatalf("label = %d, want 1", label)
	}
	var trail [8]dtree.TrailStep
	steps := ct.DecodeOffsets(offs[:n], src, source, trail[:])
	if steps != 2 {
		t.Fatalf("steps = %d, want 2", steps)
	}
	if trail[0].Feature != 3 || trail[0].Value != 5 || !trail[0].Right {
		t.Errorf("step 0 = %+v, want source feature 3 value 5 right", trail[0])
	}
	if trail[1].Feature != -1 || trail[1].Value != 0 || trail[1].Right {
		t.Errorf("step 1 = %+v, want absent feature with the projected zero going left", trail[1])
	}
	// Truncated before the absent-feature step's outcome: its direction is
	// rebuilt from the zero the walk saw, not from an unknown.
	if got := ct.DecodeOffsets(offs[:2], src, source, trail[:]); got != 2 || trail[1].Right {
		t.Errorf("truncated decode = %d steps, step 1 %+v; want 2 steps, left", got, trail[1])
	}
	// A source index the snapshot does not reach decodes as unknown.
	if ct.DecodeOffsets(offs[:1], []int32{7, -1}, source, trail[:]); !math.IsNaN(trail[0].Value) {
		t.Errorf("out-of-snapshot value = %g, want NaN", trail[0].Value)
	}

	// A foreign offset aborts the decode without panicking.
	if got := ct.DecodeOffsets([]int32{0, 99}, src, source, trail[:]); got != 1 {
		t.Errorf("foreign trail decoded %d steps, want 1", got)
	}
}

// fuzzTree grows a tree from bytes in preorder: a byte with its top bit
// set, or any byte past depth 24, is a leaf labelled by its low three
// bits; any other splits on feature b%8 at the next byte's threshold
// (read as int8). Missing bytes are leaves of class 0, so every input
// compiles.
func fuzzTree(data []byte) *dtree.Tree {
	var grow func(depth int) *dtree.Node
	grow = func(depth int) *dtree.Node {
		if len(data) == 0 {
			return leaf(0)
		}
		b := data[0]
		data = data[1:]
		if b&0x80 != 0 || depth >= 24 {
			return leaf(int(b & 7))
		}
		th := 0.0
		if len(data) > 0 {
			th, data = float64(int8(data[0])), data[1:]
		}
		return split(int(b%8), th, grow(depth+1), grow(depth+1))
	}
	return &dtree.Tree{Root: grow(0), NumFeatures: 8, NumClasses: 8}
}

// FuzzDecodeOffsets feeds DecodeOffsets what a flight record can hold
// after a torn write or a foreign emitter: any offsets, source mapping
// and feature snapshot, over any tree Compile accepts (grown by
// fuzzTree). It may not panic or hang, and a decode writes at most one
// step per offset and never past the trail.
func FuzzDecodeOffsets(f *testing.F) {
	f.Add([]byte{0, 3, 0x81, 1, 0xfe, 0x80, 0x82}, []byte{0, 1, 0xfd}, []byte{3}, []byte{5, 2}, uint8(8))
	f.Add([]byte{0x82}, []byte{0xfd}, []byte{}, []byte{}, uint8(1))
	f.Add([]byte{1, 2, 2, 0, 0x80, 0x81, 0, 0xff, 0x83, 0x80}, []byte{0, 1, 2, 0xff, 7}, []byte{0xff, 40}, []byte{1}, uint8(3))
	// A 24-deep chain of splits whose left children are all leaves of the
	// same class: the deepest walk, and offsets that overrun it.
	var chain []byte
	for i := 0; i < 24; i++ {
		chain = append(chain, byte(i%8), byte(i), 0x80)
	}
	f.Add(chain, []byte{0, 1, 2, 3, 30, 0x80}, []byte{}, []byte{1}, uint8(31))
	f.Fuzz(func(t *testing.T, tree, offs, src, feats []byte, trailCap uint8) {
		ct, err := Compile(fuzzTree(tree))
		if err != nil {
			t.Fatalf("Compile rejected a well-formed tree: %v", err)
		}
		trailOffs := make([]int32, len(offs))
		for i, b := range offs {
			trailOffs[i] = int32(int8(b))
		}
		var srcMap []int32
		for _, b := range src {
			srcMap = append(srcMap, int32(int8(b)))
		}
		x := make([]float64, len(feats))
		for i, b := range feats {
			x[i] = float64(int8(b))
			if b == 0x80 {
				x[i] = math.NaN()
			}
		}
		trail := make([]dtree.TrailStep, int(trailCap)%32)
		if steps := ct.DecodeOffsets(trailOffs, srcMap, x, trail); steps < 0 || steps > len(trail) || steps > len(trailOffs) {
			t.Fatalf("%d steps from %d offsets into a trail of %d", steps, len(trailOffs), len(trail))
		}
	})
}
