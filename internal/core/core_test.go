package core

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// syntheticFrame fabricates recorded samples for kernels whose best policy
// is sequential below a num_indices threshold of 1000 and parallel above.
func syntheticFrame(schema *features.Schema) *dataset.Frame {
	frame := dataset.NewFrame(RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	add := func(n int, policy raja.Policy, chunk int, timeNS float64) {
		row := make([]float64, schema.Len()+3)
		row[ni] = float64(n)
		row[schema.Len()] = float64(policy)
		row[schema.Len()+1] = float64(chunk)
		row[schema.Len()+2] = timeNS
		frame.AddRow(row)
	}
	for _, n := range []int{10, 50, 100, 500, 900, 1100, 2000, 5000, 10000, 50000} {
		seqTime := float64(n) * 10
		ompTime := 10000 + float64(n)*10/8
		add(n, raja.SeqExec, 0, seqTime)
		add(n, raja.OmpParallelForExec, 0, ompTime)
		for _, c := range raja.ChunkSizes {
			penalty := 1.0
			if c < 8 {
				penalty = 1.5 // tiny chunks slower
			}
			add(n, raja.OmpParallelForExec, c, ompTime*penalty)
		}
	}
	return frame
}

func testSchema() *features.Schema {
	return features.NewSchema(features.NumIndices)
}

func TestLabelPolicy(t *testing.T) {
	schema := testSchema()
	set, err := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 10 {
		t.Fatalf("got %d labeled vectors, want 10 (one per unique n)", set.Len())
	}
	for i, x := range set.X {
		n := x[0]
		want := int(raja.SeqExec)
		// crossover where n*10 = 10000 + n*10/8 -> n ~ 1142.
		if n > 1143 {
			want = int(raja.OmpParallelForExec)
		}
		if set.Y[i] != want {
			t.Errorf("n=%g labeled %d, want %d", n, set.Y[i], want)
		}
	}
}

func TestLabelChunk(t *testing.T) {
	schema := testSchema()
	set, err := Label(syntheticFrame(schema), schema, ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 10 {
		t.Fatalf("got %d chunk vectors, want 10", set.Len())
	}
	for i, y := range set.Y {
		// All chunks >= 8 tie; argmin picks the first observed minimum,
		// which must not be one of the penalized tiny chunks.
		if raja.ChunkSizes[y] < 8 {
			t.Errorf("vector %d labeled with penalized chunk %d", i, raja.ChunkSizes[y])
		}
	}
	// MeanTimes must mark unobserved classes NaN and observed finite.
	for _, times := range set.MeanTimes {
		for c, v := range times {
			if math.IsNaN(v) {
				t.Errorf("chunk class %d unobserved but frame covers the grid", c)
			}
		}
	}
}

func TestLabelMissingColumns(t *testing.T) {
	schema := testSchema()
	frame := dataset.NewFrame("num_indices", "policy") // no chunk/time
	if _, err := Label(frame, schema, ExecutionPolicy); err == nil {
		t.Error("missing columns should fail")
	}
	frame2 := dataset.NewFrame("other", ColPolicy, ColChunk, ColTimeNS)
	if _, err := Label(frame2, schema, ExecutionPolicy); err == nil {
		t.Error("missing feature column should fail")
	}
}

func TestLabelSkipsSingleVariantVectors(t *testing.T) {
	schema := testSchema()
	frame := dataset.NewFrame(RecordColumns(schema)...)
	frame.AddRow([]float64{42, float64(raja.SeqExec), 0, 100})
	if _, err := Label(frame, schema, ExecutionPolicy); err == nil {
		t.Error("a frame with no multi-variant vector should fail")
	}
}

func TestChunkClass(t *testing.T) {
	for i, c := range raja.ChunkSizes {
		if ChunkClass(c) != i {
			t.Errorf("ChunkClass(%d) = %d, want %d", c, ChunkClass(c), i)
		}
	}
	if ChunkClass(3) != -1 || ChunkClass(0) != -1 {
		t.Error("off-grid chunks should map to -1")
	}
}

func TestTrainAndPredict(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	m, err := Train(set, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{100}) != int(raja.SeqExec) {
		t.Error("small n should predict sequential")
	}
	if m.Predict([]float64{40000}) != int(raja.OmpParallelForExec) {
		t.Error("large n should predict parallel")
	}
}

func TestModelParamsMerge(t *testing.T) {
	m := &Model{Param: ExecutionPolicy}
	base := raja.Params{Policy: raja.OmpParallelForExec, Chunk: 64}
	got := m.Params(int(raja.SeqExec), base)
	if got.Policy != raja.SeqExec || got.Chunk != 64 {
		t.Errorf("policy merge wrong: %v", got)
	}
	mc := &Model{Param: ChunkSize}
	got = mc.Params(ChunkClass(256), base)
	if got.Chunk != 256 || got.Policy != raja.OmpParallelForExec {
		t.Errorf("chunk merge wrong: %v", got)
	}
}

func TestProjectorMatchesDirectPredict(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	m, _ := Train(set, TrainConfig{})
	// Source schema with extra features and different order.
	source := features.NewSchema("extra", features.NumIndices, "pad")
	proj := m.NewProjector(source)
	for _, n := range []float64{10, 800, 1500, 60000} {
		direct := m.Predict([]float64{n})
		viaProj := proj.Predict([]float64{-1, n, -2})
		if direct != viaProj {
			t.Errorf("n=%g: projector %d != direct %d", n, viaProj, direct)
		}
	}
}

func TestCrossValidate(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	res, err := CrossValidate(set, 5, 1, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldAccuracies) != 5 {
		t.Errorf("got %d folds", len(res.FoldAccuracies))
	}
	if res.MeanAccuracy < 0.5 {
		t.Errorf("mean accuracy %g suspiciously low on near-separable data", res.MeanAccuracy)
	}
	// Confusion matrix totals must equal the number of samples.
	total := 0
	for _, row := range res.Confusion {
		for _, c := range row {
			total += c
		}
	}
	if total != set.Len() {
		t.Errorf("confusion total %d != samples %d", total, set.Len())
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	a, _ := CrossValidate(set, 5, 42, TrainConfig{})
	b, _ := CrossValidate(set, 5, 42, TrainConfig{})
	if a.MeanAccuracy != b.MeanAccuracy {
		t.Error("same seed gave different CV accuracy")
	}
}

func TestFeatureRankingAndReduce(t *testing.T) {
	// Two features: informative num_indices and a constant.
	schema := features.NewSchema(features.NumIndices, features.Stride)
	frame := dataset.NewFrame(RecordColumns(schema)...)
	for _, n := range []int{10, 100, 1000, 10000, 100000} {
		seq := float64(n) * 10
		omp := 10000 + float64(n)
		frame.AddRow([]float64{float64(n), 1, float64(raja.SeqExec), 0, seq})
		frame.AddRow([]float64{float64(n), 1, float64(raja.OmpParallelForExec), 0, omp})
	}
	set, err := Label(frame, schema, ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := Train(set, TrainConfig{})
	names, imps := m.FeatureRanking()
	if names[0] != features.NumIndices {
		t.Errorf("top feature = %q, want num_indices", names[0])
	}
	if imps[0] <= imps[len(imps)-1] {
		t.Error("ranking not descending")
	}
	reduced, err := m.Reduce(set, 1, 3, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if reduced.Schema.Len() != 1 || reduced.Schema.Name(0) != features.NumIndices {
		t.Errorf("reduced schema = %v", reduced.Schema.Names())
	}
	if reduced.Tree.Depth() > 3 {
		t.Errorf("reduced depth %d > 3", reduced.Tree.Depth())
	}
	if reduced.Evaluate(set) < 0.8 {
		t.Errorf("reduced model accuracy %g too low", reduced.Evaluate(set))
	}
}

func TestEvaluateCrossSchema(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	m, _ := Train(set, TrainConfig{})
	// Evaluate against a set with a wider schema.
	wide := features.NewSchema(features.Stride, features.NumIndices)
	wideSet := &LabeledSet{Schema: wide, Param: ExecutionPolicy}
	for i, x := range set.X {
		wideSet.X = append(wideSet.X, []float64{1, x[0]})
		wideSet.Y = append(wideSet.Y, set.Y[i])
	}
	if acc := m.Evaluate(wideSet); acc != 1 {
		t.Errorf("cross-schema accuracy = %g, want 1", acc)
	}
}

func TestPredictedTimeNS(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	m, _ := Train(set, TrainConfig{})
	pred, best, static := m.PredictedTimeNS(set, int(raja.OmpParallelForExec))
	if best <= 0 || pred < best {
		t.Errorf("best %g must be positive and <= predicted %g", best, pred)
	}
	if static < best {
		t.Errorf("static-omp %g cannot beat oracle %g", static, best)
	}
	if pred > static {
		t.Errorf("model-predicted time %g worse than static %g on clean data", pred, static)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	m, _ := Train(set, TrainConfig{})
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Param != ExecutionPolicy {
		t.Error("parameter lost")
	}
	if back.Schema.Len() != 1 || back.Schema.Name(0) != features.NumIndices {
		t.Error("schema lost")
	}
	for _, n := range []float64{10, 5000, 90000} {
		if back.Predict([]float64{n}) != m.Predict([]float64{n}) {
			t.Errorf("prediction changed after reload for n=%g", n)
		}
	}
}

func TestParameterMetadata(t *testing.T) {
	if ExecutionPolicy.NumClasses() != int(raja.NumPolicies) {
		t.Error("policy class count wrong")
	}
	if ChunkSize.NumClasses() != len(raja.ChunkSizes) {
		t.Error("chunk class count wrong")
	}
	if ExecutionPolicy.ClassName(0) != "seq_exec" {
		t.Errorf("ClassName = %q", ExecutionPolicy.ClassName(0))
	}
	if ChunkSize.ClassName(3) != "8" {
		t.Errorf("chunk ClassName = %q", ChunkSize.ClassName(3))
	}
}

func TestTrainConfigDepthCap(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	cfg := TrainConfig{Tree: dtree.Config{MaxDepth: 1}}
	m, err := Train(set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tree.Depth() > 1 {
		t.Errorf("depth %d exceeds cap 1", m.Tree.Depth())
	}
}

// edgeFrame records two vectors, each under both policies with opposite
// winners, whose num_indices are a and b.
func edgeFrame(schema *features.Schema, a, b float64) *dataset.Frame {
	frame := dataset.NewFrame(RecordColumns(schema)...)
	for _, r := range [][4]float64{{a, 0, 0, 10}, {a, 1, 0, 20}, {b, 0, 0, 20}, {b, 1, 0, 10}} {
		frame.AddRow(r[:])
	}
	return frame
}

// TestTrainEdgeValues: adjacent floats, whose midpoint rounds up to the
// larger, must split into two non-empty children; non-finite features
// must be refused, not recursed on.
func TestTrainEdgeValues(t *testing.T) {
	schema := testSchema()
	v := math.Nextafter(1, 2)
	set, err := Label(edgeFrame(schema, v, math.Nextafter(v, 2)), schema, ExecutionPolicy)
	if err != nil || set.Len() != 2 {
		t.Fatalf("Label: %v, %d vectors", err, set.Len())
	}
	for _, depth := range []int{5, 0} {
		m, err := Train(set, TrainConfig{Tree: dtree.Config{MaxDepth: depth}})
		if err != nil {
			t.Fatal(err)
		}
		root := m.Tree.Root
		if root.IsLeaf() || root.Left.Samples != 1 || root.Right.Samples != 1 || m.Evaluate(set) != 1 {
			t.Errorf("MaxDepth %d: the split at %v does not separate the two vectors", depth, root.Threshold)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		set, err := Label(edgeFrame(schema, 1, bad), schema, ExecutionPolicy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Train(set, TrainConfig{}); err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("num_indices %v: Train error %v, want a non-finite feature refused", bad, err)
		}
	}
}

func TestCVResultClassMetrics(t *testing.T) {
	r := &CVResult{Confusion: [][]int{{8, 2}, {1, 9}}}
	if got := r.ClassAccuracy(0); got != 0.8 {
		t.Errorf("ClassAccuracy(0) = %g", got)
	}
	if got := r.ClassAccuracy(1); got != 0.9 {
		t.Errorf("ClassAccuracy(1) = %g", got)
	}
	if got := r.ClassPrecision(0); got != 8.0/9 {
		t.Errorf("ClassPrecision(0) = %g", got)
	}
	if r.ClassAccuracy(5) != 0 || r.ClassPrecision(-1) != 0 {
		t.Error("out-of-range class should be 0")
	}
	// Empty row and never-predicted class.
	e := &CVResult{Confusion: [][]int{{0, 0}, {5, 0}}}
	if e.ClassAccuracy(0) != 0 || e.ClassPrecision(1) != 0 {
		t.Error("degenerate confusion metrics should be 0")
	}
}

func TestCVResultReport(t *testing.T) {
	schema := testSchema()
	set, _ := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	res, err := CrossValidate(set, 5, 1, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(ExecutionPolicy)
	for _, want := range []string{"mean accuracy", "seq_exec", "omp_parallel_for_exec", "recall"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// Subset picks rows by index with every column still aligned, in the
// order asked for, and leaves columns the set lacks absent.
func TestSubsetKeepsColumnsAligned(t *testing.T) {
	schema := features.TableI()
	set, err := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Weights {
		set.Weights[i] = float64(i + 2) // tell the rows apart
	}
	idx := []int{7, 0, 3, 3, 9}
	sub := set.Subset(idx)
	if sub.Schema != set.Schema || sub.Param != set.Param || sub.Len() != len(idx) ||
		len(sub.Y) != len(idx) || len(sub.MeanTimes) != len(idx) || len(sub.Weights) != len(idx) {
		t.Fatalf("subset = %d/%d/%d/%d rows under %v/%v, want %d of each", sub.Len(), len(sub.Y),
			len(sub.MeanTimes), len(sub.Weights), sub.Schema, sub.Param, len(idx))
	}
	for k, i := range idx {
		if &sub.X[k][0] != &set.X[i][0] || sub.Y[k] != set.Y[i] ||
			&sub.MeanTimes[k][0] != &set.MeanTimes[i][0] || sub.Weights[k] != set.Weights[i] {
			t.Errorf("subset row %d is not set row %d in every column", k, i)
		}
		for c := 0; c < 2; c++ {
			if sub.TimeOf(k, c) != set.TimeOf(i, c) {
				t.Errorf("TimeOf(%d, %d) = %g after the subset, %g before", k, c, sub.TimeOf(k, c), set.TimeOf(i, c))
			}
		}
	}
	bare := (&LabeledSet{Schema: schema, Param: ExecutionPolicy, X: set.X, Y: set.Y}).Subset(idx)
	if bare.Len() != len(idx) || bare.MeanTimes != nil || bare.Weights != nil {
		t.Errorf("subset of a set without times or weights grew them: %d rows, %v, %v", bare.Len(), bare.MeanTimes, bare.Weights)
	}
}

// Project is Schema.Project row by row, everything else shared.
func TestProjectMatchesSchemaProject(t *testing.T) {
	schema := features.TableI()
	set, err := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	narrow := schema.Select(features.Timestep, features.NumIndices)
	got := set.Project(narrow)
	if got.Schema != narrow || got.Param != set.Param || got.Len() != set.Len() ||
		&got.Y[0] != &set.Y[0] || &got.MeanTimes[0] != &set.MeanTimes[0] || &got.Weights[0] != &set.Weights[0] {
		t.Fatalf("projection does not share the set's labels, times and weights")
	}
	for i, x := range set.X {
		want := schema.Project(x, narrow)
		if len(got.X[i]) != len(want) {
			t.Fatalf("row %d has %d features, want %d", i, len(got.X[i]), len(want))
		}
		for j := range want {
			if got.X[i][j] != want[j] {
				t.Errorf("row %d feature %d = %g, Schema.Project gives %g", i, j, got.X[i][j], want[j])
			}
		}
	}
}

// TimeOf is the checked lookup: an unobserved class, a negative one and
// one past the row all cost the vector's worst observed time.
func TestTimeOfFallsBackToWorstObserved(t *testing.T) {
	set := &LabeledSet{MeanTimes: [][]float64{{math.NaN(), 40, 70}, {5, math.NaN(), math.NaN()}}}
	for _, tc := range []struct {
		i, class int
		want     float64
	}{{0, 1, 40}, {0, 2, 70}, {0, 0, 70}, {0, -1, 70}, {0, 3, 70}, {0, 7, 70}, {1, 0, 5}, {1, 2, 5}} {
		if got := set.TimeOf(tc.i, tc.class); got != tc.want {
			t.Errorf("TimeOf(%d, %d) = %g, want %g", tc.i, tc.class, got, tc.want)
		}
	}
}
