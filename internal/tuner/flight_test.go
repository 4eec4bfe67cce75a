package tuner

import (
	"math"
	"strings"
	"testing"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/lulesh"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

func newFlightRecorder(schema *features.Schema) *flight.Recorder {
	return flight.New(flight.Options{
		Shards:        2,
		ShardCapacity: 64,
		FeatureNames:  schema.Names(),
	})
}

func TestTunerEndEmitsFlight(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model).UseFlight(fr)

	k := raja.NewKernel("daxpy", nil)
	small := raja.NewRange(0, 50)
	large := raja.NewRange(0, 100000)
	for i, launch := range []struct {
		iset *raja.IndexSet
		ns   float64
	}{{small, 500}, {small, 700}, {large, 90000}} {
		p, _ := tn.Begin(k, launch.iset)
		tn.End(k, launch.iset, p, launch.ns)
		_ = i
	}

	recs := fr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d flight records, want 3", len(recs))
	}
	if name := fr.SiteName(recs[0].Site); name != "daxpy" {
		t.Fatalf("site name %q, want daxpy", name)
	}
	first := recs[0]
	if first.Predicted != int32(raja.SeqExec) || first.Policy != int32(raja.SeqExec) {
		t.Fatalf("small launch: predicted=%d policy=%d, want seq", first.Predicted, first.Policy)
	}
	if first.Explored {
		t.Fatal("non-explored launch marked Explored")
	}
	// A single-model site records one offset trail.
	trail, second := first.Trails()
	if len(trail) == 0 || len(second) != 0 {
		t.Fatalf("single-model site recorded trails of %d/%d offsets, want one trail", len(trail), len(second))
	}
	ni := schema.Index(features.NumIndices)
	if int(first.NumFeatures) <= ni || first.Features[ni] != 50 {
		t.Fatalf("feature snapshot wrong: n=%d num_indices=%g", first.NumFeatures, first.Features[ni])
	}
	// Decoding the offsets against the site's registered decoder must
	// reconstruct the interpreted walk's trail, which consults num_indices
	// (the model's only informative feature) in source-schema indexing.
	dec := fr.Site(first.Site).Decoder()
	if dec == nil || dec.Tree == nil || dec.ChunkTree != nil {
		t.Fatalf("single-model site registered decoder %+v, want a policy tree only", dec)
	}
	x := first.Features[:first.NumFeatures]
	var steps, want [flight.MaxTrail]dtree.TrailStep
	n := dec.Tree.DecodeOffsets(trail, dec.Src, x, steps[:])
	_, wantN := model.Tree.PredictTrail(x, want[:])
	if n == 0 || n != wantN || steps != want {
		t.Fatalf("decoded trail %+v, interpreted %+v", steps[:n], want[:wantN])
	}
	found := false
	for _, st := range steps[:n] {
		if int(st.Feature) == ni && st.Value == 50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("decoded trail does not consult num_indices: %+v", steps[:n])
	}
	if first.ObservedNS != 500 || first.PredictedNS != 0 {
		t.Fatalf("first record predicted/observed = %g/%g, want 0/500", first.PredictedNS, first.ObservedNS)
	}
	// Second identical launch: the EWMA now predicts the first's runtime.
	if recs[1].PredictedNS != 500 || recs[1].ObservedNS != 700 {
		t.Fatalf("second record predicted/observed = %g/%g, want 500/700", recs[1].PredictedNS, recs[1].ObservedNS)
	}
	large3 := recs[2]
	if large3.Predicted != int32(raja.OmpParallelForExec) {
		t.Fatalf("large launch predicted %d, want omp", large3.Predicted)
	}
	if large3.Iterations != 100000 {
		t.Fatalf("iterations = %d, want 100000", large3.Iterations)
	}
	if large3.FeatureNS < 0 || large3.ModelNS < 0 {
		t.Fatalf("phase timings negative: feature=%g model=%g", large3.FeatureNS, large3.ModelNS)
	}
}

func TestTunerFlightMarksExploration(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).
		UsePolicyModel(model).UseFlight(fr).ExploreEvery(1)

	k := raja.NewKernel("explore", nil)
	iset := raja.NewRange(0, 50) // model picks seq
	// Every launch is a candidate; the site's first look comes once its
	// kernel time affords one more launch, after about 1/ε of them.
	flipped := false
	for i := 0; i < 200 && !flipped; i++ {
		p, _ := tn.Begin(k, iset)
		tn.End(k, iset, p, 100)
		flipped = p.Policy != raja.SeqExec
	}
	if !flipped {
		t.Fatal("a warmed site never explored at ExploreEvery(1)")
	}

	recs := fr.Snapshot()
	for _, rec := range recs[:len(recs)-1] {
		if rec.Explored {
			t.Fatalf("record %d marked Explored before the flipped launch", rec.Seq)
		}
	}
	rec := recs[len(recs)-1]
	if !rec.Explored {
		t.Fatal("exploration launch not marked Explored")
	}
	if rec.Policy == rec.Predicted {
		t.Fatalf("explored launch ran the predicted policy: %d", rec.Policy)
	}
}

func TestTunerFlightDetach(t *testing.T) {
	schema := features.TableI()
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UseFlight(fr)
	if tn.Flight() != fr {
		t.Fatal("Flight() does not return the attached recorder")
	}
	tn.UseFlight(nil)
	k := raja.NewKernel("k", nil)
	iset := raja.NewRange(0, 10)
	tn.End(k, iset, raja.Params{}, 100)
	if got := len(fr.Snapshot()); got != 0 {
		t.Fatalf("detached recorder received %d records", got)
	}
}

// TestTunerEndFlightZeroAlloc is the acceptance criterion for always-on
// flight recording: a full-provenance emission (feature re-extraction,
// trail-capturing model replay, EWMA update, ring write) must allocate
// nothing.
func TestTunerEndFlightZeroAlloc(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model).UseFlight(fr)
	k := raja.NewKernel("alloc", nil)
	iset := raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.SeqExec}
	if allocs := testing.AllocsPerRun(1000, func() { tn.End(k, iset, p, 100) }); allocs != 0 && !raceEnabled {
		t.Errorf("flight End: %v allocs/run, want 0", allocs)
	}
}

// chunkModelOnReducedSchema hand-builds a chunk model over a schema the
// tuner's source only half covers: num_indices maps through, "absent"
// projects as zero (source index -1).
func chunkModelOnReducedSchema(t *testing.T) *core.Model {
	leaf := func(class int) *dtree.Node { return &dtree.Node{Feature: -1, Label: class} }
	m, err := core.NewModel(core.ChunkSize, features.NewSchema("absent", features.NumIndices),
		&dtree.Tree{
			Root: &dtree.Node{Feature: 1, Threshold: 1000,
				Left:  &dtree.Node{Feature: 0, Threshold: -1, Left: leaf(0), Right: leaf(1)},
				Right: &dtree.Node{Feature: 0, Threshold: 5, Left: leaf(2), Right: leaf(3)}},
			NumFeatures: 2, NumClasses: 4,
		})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTunerEndDualModelFlight covers a site running both a policy and a
// chunk model: the record carries two offset trails, each decoding —
// through the decoder the tuner registered — to the interpreted walk of
// its own model, and the emission still allocates nothing.
func TestTunerEndDualModelFlight(t *testing.T) {
	schema := features.TableI()
	policy, chunk := trainPolicyModel(t, schema), chunkModelOnReducedSchema(t)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(policy).UseChunkModel(chunk).UseFlight(fr)
	k := raja.NewKernel("dual", nil)
	ni := schema.Index(features.NumIndices)
	for _, iters := range []int{50, 100000} {
		iset := raja.NewRange(0, iters)
		p, _ := tn.Begin(k, iset)
		tn.End(k, iset, p, 100)
	}
	recs := fr.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	dec := fr.Site(k.ID).Decoder()
	if dec == nil || dec.Tree == nil || dec.ChunkTree == nil {
		t.Fatalf("dual site registered decoder %+v, want both trees", dec)
	}
	if dec.ChunkSrc[0] != -1 || int(dec.ChunkSrc[1]) != ni {
		t.Fatalf("chunk source mapping %v, want [-1 %d]", dec.ChunkSrc, ni)
	}
	for _, rec := range recs {
		x := rec.Features[:rec.NumFeatures]
		first, second := rec.Trails()
		var got, want [flight.MaxTrail]dtree.TrailStep
		// Policy trail: the model shares the source schema.
		n := dec.Tree.DecodeOffsets(first, dec.Src, x, got[:])
		class, wantN := policy.Tree.PredictTrail(x, want[:])
		if n == 0 || n != wantN || got != want || rec.Predicted != int32(class) {
			t.Fatalf("iters=%g policy trail %+v (predicted %d), interpreted %+v (class %d)",
				x[ni], got[:n], rec.Predicted, want[:wantN], class)
		}
		// Chunk trail: interpreted over the projected vector, with the
		// feature indices mapped back to the source (-1 for "absent").
		got, want = [flight.MaxTrail]dtree.TrailStep{}, [flight.MaxTrail]dtree.TrailStep{}
		n = dec.ChunkTree.DecodeOffsets(second, dec.ChunkSrc, x, got[:])
		class, wantN = chunk.Tree.PredictTrail([]float64{0, x[ni]}, want[:])
		for i := range want[:wantN] {
			want[i].Feature = dec.ChunkSrc[want[i].Feature]
		}
		if n != 2 || n != wantN || got != want || rec.Chunk != int32(raja.ChunkSizes[class]) {
			t.Fatalf("iters=%g chunk trail %+v (chunk %d), interpreted %+v (class %d)",
				x[ni], got[:n], rec.Chunk, want[:wantN], class)
		}
	}
	// The capture renders both as one path, policy steps first.
	for _, cr := range fr.Capture().Records {
		if len(cr.TrailOffsets) == 0 || len(cr.ChunkTrailOffsets) != 3 || len(cr.Path) != len(cr.TrailOffsets)-1+2 {
			t.Fatalf("capture record: trails %v / %v, path %q", cr.TrailOffsets, cr.ChunkTrailOffsets, cr.Path)
		}
		if last := cr.Path[len(cr.Path)-1]; !strings.HasPrefix(last, "(absent feature) (=0)") {
			t.Fatalf("chunk path ends %q, want the absent-feature step", last)
		}
	}

	iset := raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.SeqExec}
	if allocs := testing.AllocsPerRun(1000, func() { tn.End(k, iset, p, 100) }); allocs != 0 && !raceEnabled {
		t.Errorf("dual-model flight End: %v allocs/run, want 0", allocs)
	}

	// Swapping either model re-registers both decoder pairs together.
	tn.UseChunkModel(chunkModelOnReducedSchema(t))
	tn.End(k, iset, p, 100)
	if next := fr.Site(k.ID).Decoder(); next == dec || next.Tree != dec.Tree || next.ChunkTree == dec.ChunkTree {
		t.Fatalf("chunk-model swap left decoder %+v (was %+v)", next, dec)
	}
}

// BenchmarkTunerEndFlight measures the always-on flight-recording cost
// per launch: telemetry off, flight on (EXPERIMENTS.md).
func BenchmarkTunerEndFlight(b *testing.B) {
	schema := features.TableI()
	model := trainPolicyModel(b, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model).UseFlight(fr)
	k := raja.NewKernel("bench", nil)
	iset := raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.SeqExec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.End(k, iset, p, 100)
	}
}

// TestTunerEndSharesOneExtraction runs a hydro application under the
// stock wiring (telemetry and flight on one schema and blackboard) and
// checks, launch by launch, that the telemetry row's feature columns and
// the flight record's feature snapshot are the same vector — End
// extracts once and both are copies of it — and that steady-state End
// with both attached allocates nothing.
func TestTunerEndSharesOneExtraction(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	desc := lulesh.Descriptor()
	fr := flight.New(flight.Options{Shards: 1, ShardCapacity: 1 << 12, FeatureNames: schema.Names()})
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1, Capacity: 1 << 12})
	tn := NewTuner(schema, ann, desc.DefaultParams).
		UsePolicyModel(trainPolicyModel(t, schema)).UseTelemetry(rec).UseFlight(fr).ExploreEvery(8)
	ctx := simContext(tn, desc.DefaultParams)
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sim.Step()
	}
	rows, recs := rec.Drain(0), fr.Snapshot()
	if rows == nil || rows.Len() != len(recs) || rows.Len() != int(tn.Decisions()) {
		t.Fatalf("%v telemetry rows, %d flight records, %d launches: want one of each per launch", rows, len(recs), tn.Decisions())
	}
	n := schema.Len()
	steps := map[float64]bool{}
	for i, fl := range recs {
		row := rows.Row(i)
		if int(fl.NumFeatures) != n {
			t.Fatalf("launch %d: flight record holds %d features, want %d", i, fl.NumFeatures, n)
		}
		for j := 0; j < n; j++ {
			if math.Float64bits(row[j]) != math.Float64bits(fl.Features[j]) {
				t.Fatalf("launch %d, %s: telemetry row %v, flight record %v", i, schema.Name(j), row[j], fl.Features[j])
			}
		}
		if row[n+2] != fl.ObservedNS || int32(row[n]) != fl.Policy {
			t.Fatalf("launch %d: row (policy %v, %v ns) and record (policy %d, %v ns) are different launches", i, row[n], row[n+2], fl.Policy, fl.ObservedNS)
		}
		steps[row[schema.Index(features.Timestep)]] = true
	}
	if len(steps) < 5 {
		t.Fatalf("rows carry timesteps %v: the blackboard did not move under the run", steps)
	}

	k, iset := raja.NewKernel("alloc", nil), raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.SeqExec}
	rec.Drain(0) // the ring (4096 rows) now outlasts the measured calls: every End is sampled and enqueued
	allocs := testing.AllocsPerRun(1000, func() { tn.End(k, iset, p, 100) })
	if allocs != 0 && !raceEnabled {
		t.Errorf("End with telemetry and flight attached: %v allocs/run, want 0", allocs)
	}
	if rec.Dropped() != 0 {
		t.Errorf("%d rows dropped: the measured Ends did not all take the sampled path", rec.Dropped())
	}
}

// TestTunerEndForeignRecorder: a telemetry recorder on another schema or
// blackboard than the tuner's cannot take End's vector; it extracts its
// own, laid out by its own schema.
func TestTunerEndForeignRecorder(t *testing.T) {
	schema := features.TableI()
	ann, otherAnn := caliper.New(), caliper.New()
	ann.Set(features.Timestep, 1)
	otherAnn.Set(features.Timestep, 2)
	reduced := schema.Select(features.Timestep, features.NumIndices)
	tn := NewTuner(schema, ann, raja.Params{}).UseFlight(newFlightRecorder(schema))
	k, iset := raja.NewKernel("foreign", nil), raja.NewRange(0, 64)
	for _, c := range []struct {
		name string
		rec  *telemetry.Recorder
		want []float64
	}{
		{"other schema", telemetry.NewRecorder(reduced, ann, telemetry.Options{}), []float64{1, 64}},
		{"other blackboard", telemetry.NewRecorder(reduced, otherAnn, telemetry.Options{}), []float64{2, 64}},
	} {
		tn.UseTelemetry(c.rec)
		tn.End(k, iset, raja.Params{}, 100)
		frame := c.rec.Drain(0)
		if frame == nil || frame.Len() != 1 {
			t.Fatalf("%s: drained %v, want one row", c.name, frame)
		}
		if row := frame.Row(0); row[0] != c.want[0] || row[1] != c.want[1] || row[4] != 100 {
			t.Errorf("%s: row %v, want features %v and 100 ns", c.name, row, c.want)
		}
	}
}
