package tuner

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/cleverleaf"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/lulesh"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

func newFlightRecorder(schema *features.Schema) *flight.Recorder {
	return flight.New(flight.Options{Capacity: 128, FeatureNames: schema.Names()})
}

func TestTunerEndEmitsFlight(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model).UseFlight(fr)

	k := raja.NewKernel("daxpy", nil)
	small := raja.NewRange(0, 50)
	large := raja.NewRange(0, 100000)
	// 33 launches: the records are launches 1, 17 and 33 (flightEvery).
	type launch struct {
		iset *raja.IndexSet
		ns   float64
	}
	launches := []launch{{small, 500}}
	for i := 0; i < 15; i++ {
		launches = append(launches, launch{small, 700})
	}
	launches = append(launches, launch{small, 900})
	for i := 0; i < 15; i++ {
		launches = append(launches, launch{small, 700})
	}
	launches = append(launches, launch{large, 90000})
	for _, launch := range launches {
		p, _ := tn.Begin(k, launch.iset)
		tn.End(k, launch.iset, p, launch.ns)
	}

	recs := fr.Snapshot()
	if len(recs) != 3 || fr.Emitted() != 3 {
		t.Fatalf("got %d flight records (%d emitted) from 33 launches, want 3", len(recs), fr.Emitted())
	}
	if name := recs[0].SiteName(); name != "daxpy" {
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
	// Decoding the offsets against the recorder's decoder, the one they
	// were written under, must reconstruct the interpreted walk's trail,
	// which consults num_indices (the model's only informative feature)
	// in source-schema indexing.
	dec := fr.Decoder()
	if dec == nil || dec.Tree == nil || dec.ChunkTree != nil {
		t.Fatalf("single-model tuner installed decoder %+v, want a policy tree only", dec)
	}
	for _, rec := range recs {
		if rec.DecoderGen != dec.Gen() {
			t.Fatalf("record %d written under decoder generation %d, the recorder's is %d", rec.Seq, rec.DecoderGen, dec.Gen())
		}
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
	// The 17th launch: the per-iteration EWMA folded in all sixteen
	// before it, recorded or not, priced at this launch's 50 iterations.
	perIter := 500.0 / 50
	for i := 0; i < 15; i++ {
		perIter = 0.75*perIter + 0.25*(700.0/50)
	}
	if recs[1].PredictedNS != perIter*50 || recs[1].ObservedNS != 900 {
		t.Fatalf("17th launch predicted/observed = %g/%g, want %g/900", recs[1].PredictedNS, recs[1].ObservedNS, perIter*50)
	}
	large3 := recs[2]
	if large3.Predicted != int32(raja.OmpParallelForExec) {
		t.Fatalf("large launch predicted %d, want omp", large3.Predicted)
	}
	if large3.Iterations != 100000 {
		t.Fatalf("iterations = %d, want 100000", large3.Iterations)
	}
	if large3.PredictedNS != 0 {
		t.Fatalf("first omp launch predicted %g ns, want 0 (no observation of omp yet)", large3.PredictedNS)
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
// through the decoder the tuner installed — to the interpreted walk of
// its own model, and the emission still allocates nothing.
func TestTunerEndDualModelFlight(t *testing.T) {
	schema := features.TableI()
	policy, chunk := trainPolicyModel(t, schema), chunkModelOnReducedSchema(t)
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(policy).UseChunkModel(chunk).UseFlight(fr)
	k := raja.NewKernel("dual", nil)
	ni := schema.Index(features.NumIndices)
	// Launch 1 runs 50 iterations, launches 2–17 run 100,000: the records
	// are launches 1 and 17, one of each.
	for i := 0; i < flightEvery+1; i++ {
		iset := raja.NewRange(0, 100000)
		if i == 0 {
			iset = raja.NewRange(0, 50)
		}
		p, _ := tn.Begin(k, iset)
		tn.End(k, iset, p, 100)
	}
	recs := fr.Snapshot()
	if len(recs) != 2 || recs[0].Iterations != 50 || recs[1].Iterations != 100000 {
		t.Fatalf("got %d records, want launches 1 (50 iterations) and 17 (100000)", len(recs))
	}
	dec := fr.Decoder()
	if dec == nil || dec.Tree == nil || dec.ChunkTree == nil {
		t.Fatalf("dual-model tuner installed decoder %+v, want both trees", dec)
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
	for j, cr := range fr.Capture().Records {
		first, second := recs[j].Trails()
		if len(first) == 0 || len(second) != 3 || len(cr.Path) != len(first)-1+2 {
			t.Fatalf("capture record: trails %v / %v, path %q", first, second, cr.Path)
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

	// Swapping either model installs both decoder pairs together, on the
	// next recorded launch, under a new generation.
	tn.UseChunkModel(chunkModelOnReducedSchema(t))
	for i := 0; i < flightEvery; i++ {
		tn.End(k, iset, p, 100)
	}
	if next := fr.Decoder(); next == dec || next.Tree != dec.Tree || next.ChunkTree == dec.ChunkTree || next.Gen() == dec.Gen() {
		t.Fatalf("chunk-model swap left decoder %+v (was %+v)", next, dec)
	}
}

// thresholdModel hand-builds a policy model with one split, num_indices
// <= th → seq, else omp.
func thresholdModel(t *testing.T, th float64) *core.Model {
	m, err := core.NewModel(core.ExecutionPolicy, features.NewSchema(features.NumIndices),
		&dtree.Tree{
			Root: &dtree.Node{Feature: 0, Threshold: th,
				Left:  &dtree.Node{Feature: -1, Label: int(raja.SeqExec)},
				Right: &dtree.Node{Feature: -1, Label: int(raja.OmpParallelForExec)}},
			NumFeatures: 1, NumClasses: 2,
		})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCaptureExplainsOnlyTheDecidingModel: a record written under one
// model and captured after a swap to another keeps its features and
// outcome but shows no path — decoded against the new tree it would read
// a threshold the deciding model never had — while the record written
// under the new model is explained by it.
func TestCaptureExplainsOnlyTheDecidingModel(t *testing.T) {
	schema := features.TableI()
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(thresholdModel(t, 96)).UseFlight(fr)
	k, iset := raja.NewKernel("swap", nil), raja.NewRange(0, 100)
	launch := func() {
		p, _ := tn.Begin(k, iset)
		tn.End(k, iset, p, 100)
	}
	launch() // recorded under A
	tn.UsePolicyModel(thresholdModel(t, 8))
	for fr.Emitted() < 2 {
		launch() // the next recorded launch runs under B
	}
	c := fr.Capture()
	if len(c.Records) != 2 {
		t.Fatalf("%d records, want one under each model", len(c.Records))
	}
	old, cur := c.Records[0], c.Records[1]
	if old.Path != nil {
		t.Errorf("the record written under the replaced model renders %q", old.Path)
	}
	if old.Site != "swap" || old.Predicted != int(raja.OmpParallelForExec) || old.Features[features.NumIndices] != 100 {
		t.Errorf("the stale record lost its outcome: %+v", old)
	}
	if want := "num_indices (=100) > 8 → right"; len(cur.Path) != 1 || cur.Path[0] != want {
		t.Errorf("the current record renders %q, want [%q]", cur.Path, want)
	}
}

// TestFlightPredictsPerIteration: a site launching index sets of two sizes
// records, for each selected launch, the prediction of the region's
// per-iteration EWMA over every earlier launch, scaled to this launch's
// iterations — not an average of elapsed times across sizes.
func TestFlightPredictsPerIteration(t *testing.T) {
	fr := newFlightRecorder(features.TableI())
	tn := NewTuner(features.TableI(), caliper.New(), raja.Params{}).UseFlight(fr)
	k := raja.NewKernel("sizes", nil)
	sizes := []*raja.IndexSet{raja.NewRange(0, 16), raja.NewRange(0, 1000)}
	var perIter float64
	var want []float64
	for i := 0; i < 8*flightEvery; i++ {
		// Alternate sizes, shifting the phase each cadence period so the
		// recorded launches alternate too.
		iset := sizes[(i+i/flightEvery)%2]
		iters := float64(iset.Len())
		ns := iters * float64(10+i%7)
		if i%flightEvery == 0 {
			want = append(want, perIter*iters)
		}
		p, _ := tn.Begin(k, iset)
		tn.End(k, iset, p, ns)
		if perIter == 0 {
			perIter = ns / iters
		} else {
			perIter = 0.75*perIter + 0.25*(ns/iters)
		}
	}
	recs := fr.Snapshot()
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for j, rec := range recs {
		if want := sizes[j%2].Len(); rec.Iterations != int64(want) {
			t.Fatalf("record %d: %d iterations, want %d", j, rec.Iterations, want)
		}
		if rec.PredictedNS != want[j] {
			t.Fatalf("record %d (%d iterations): predicted %v ns, the per-iteration EWMA prices it at %v", j, rec.Iterations, rec.PredictedNS, want[j])
		}
	}
	if recs[1].PredictedNS == 0 {
		t.Fatal("the second record predicted nothing")
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

// launchLog wraps a tuner's hooks and keeps every launch: the site, the
// index set, the parameters End was handed, the time, and whether Begin
// flipped it — what the flight cadence selects by.
type launchLog struct {
	tn       *Tuner
	flipped  bool
	launches []loggedLaunch
}

type loggedLaunch struct {
	k       *raja.Kernel
	iset    *raja.IndexSet
	p       raja.Params
	ns      float64
	flipped bool
	looks   bool       // a look was near, as End saw it
	board   [2]float64 // patch_id and rank as the launch saw them
}

func (l *launchLog) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	explored := l.tn.Explored()
	p, ok := l.tn.Begin(k, iset)
	l.flipped = l.tn.Explored() != explored
	return p, ok
}

func (l *launchLog) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	l.tn.End(k, iset, p, elapsedNS)
	looks := l.tn.exploreEvery.Load() > 0 && l.tn.site(k.ID).fits(p.Policy, iset.Len(), rowsFirst*elapsedNS)
	board := [2]float64{l.tn.ann.GetOr(features.PatchID, 0), l.tn.ann.GetOr("rank", 0)}
	l.launches = append(l.launches, loggedLaunch{k: k, iset: iset, p: p, ns: elapsedNS, flipped: l.flipped, looks: looks, board: board})
}

// recordedLaunches replays the flight cadence over a launch log: the
// indices of each site's 1st, 17th, 33rd, … launch and of every flipped one.
func recordedLaunches(launches []loggedLaunch) []int {
	ended := map[uint64]int{}
	var out []int
	for i, l := range launches {
		ended[l.k.ID]++
		if ended[l.k.ID]%flightEvery == 1 || l.flipped {
			out = append(out, i)
		}
	}
	return out
}

// keptRows replays the telemetry row cadence over a launch log: the
// indices of the launches End keeps a row of, and each row's weight.
func keptRows(launches []loggedLaunch) (idx []int, weights []float64) {
	ended, flip, origin := map[uint64]uint64{}, map[uint64]uint64{}, map[uint64]uint64{}
	for i, l := range launches {
		id := l.k.ID
		ended[id]++
		n, w := ended[id], 1.0
		if l.flipped {
			if prev := flip[id]; prev == 0 || n-prev > lookGap {
				origin[id] = n
			}
			flip[id] = n
		} else if w = rowWeight(n - origin[id]); w == 0 && n-flip[id] > lookGap && l.looks {
			w = 1
		}
		if w > 0 {
			idx, weights = append(idx, i), append(weights, w)
		}
	}
	return idx, weights
}

// TestTunerEndSharesOneExtraction runs a hydro application under the
// stock wiring (telemetry and flight on one schema and blackboard) and
// checks that the rows and the flight records are exactly the launches
// their cadences select, that each record's feature snapshot is its
// launch's telemetry row bit for bit where the launch has one — End
// extracts once and both are copies of it — and that steady-state End
// with both attached allocates nothing.
func TestTunerEndSharesOneExtraction(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	desc := lulesh.Descriptor()
	fr := flight.New(flight.Options{Capacity: 1 << 12, FeatureNames: schema.Names()})
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1, Capacity: 1 << 12})
	tn := NewTuner(schema, ann, desc.DefaultParams).
		UsePolicyModel(trainPolicyModel(t, schema)).UseTelemetry(rec).UseFlight(fr).ExploreEvery(8)
	log := &launchLog{tn: tn}
	ctx := simContext(log, desc.DefaultParams)
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		sim.Step()
	}
	rows, recs := rec.Drain(0), fr.Snapshot()
	kept, weights := keptRows(log.launches)
	if rows == nil || rows.Len() != len(kept) || len(log.launches) != int(tn.Decisions()) || len(kept) >= len(log.launches)/2 {
		t.Fatalf("%v telemetry rows, %d launches logged, %d decisions: the cadence keeps %d", rows, len(log.launches), tn.Decisions(), len(kept))
	}
	n := schema.Len()
	rowOf := map[int]int{}
	var seen float64
	for r, i := range kept {
		rowOf[i] = r
		seen += weights[r]
		if got := rows.Row(r)[n+3]; got != weights[r] || rows.Row(r)[n+2] != log.launches[i].ns {
			t.Fatalf("row %d: weight %v, %v ns; launch %d: weight %v, %v ns", r, got, rows.Row(r)[n+2], i, weights[r], log.launches[i].ns)
		}
	}
	if math.Abs(seen-float64(len(log.launches))) > 0.1*float64(len(log.launches)) {
		t.Fatalf("the rows weigh %v launches, %d ran", seen, len(log.launches))
	}
	want := recordedLaunches(log.launches)
	if len(recs) != len(want) || len(want) >= len(log.launches)/4 {
		t.Fatalf("%d flight records, the cadence selects %d of %d launches", len(recs), len(want), len(log.launches))
	}
	shared := 0
	for j, fl := range recs {
		i := want[j]
		r, ok := rowOf[i]
		if !ok {
			continue
		}
		shared++
		row := rows.Row(r)
		if int(fl.NumFeatures) != n {
			t.Fatalf("launch %d: flight record holds %d features, want %d", i, fl.NumFeatures, n)
		}
		for f := 0; f < n; f++ {
			if math.Float64bits(row[f]) != math.Float64bits(fl.Features[f]) {
				t.Fatalf("launch %d, %s: telemetry row %v, flight record %v", i, schema.Name(f), row[f], fl.Features[f])
			}
		}
		if row[n+2] != fl.ObservedNS || int32(row[n]) != fl.Policy || fl.Site != log.launches[i].k.ID {
			t.Fatalf("launch %d: row (policy %v, %v ns) and record (site %#x, policy %d, %v ns) are different launches", i, row[n], row[n+2], fl.Site, fl.Policy, fl.ObservedNS)
		}
	}
	if shared < len(recs)/2 {
		t.Fatalf("only %d of %d flight records have a telemetry row to compare with", shared, len(recs))
	}
	steps := map[float64]bool{}
	for i := 0; i < rows.Len(); i++ {
		steps[rows.Row(i)[schema.Index(features.Timestep)]] = true
	}
	if len(steps) < 5 {
		t.Fatalf("rows carry timesteps %v: the blackboard did not move under the run", steps)
	}

	k, iset := raja.NewKernel("alloc", nil), raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.SeqExec}
	rec.Drain(0)
	allocs := testing.AllocsPerRun(1000, func() { tn.End(k, iset, p, 100) })
	if allocs != 0 && !raceEnabled {
		t.Errorf("End with telemetry and flight attached: %v allocs/run, want 0", allocs)
	}
	if got := rec.Drain(0); got == nil || got.Len() < rowsFirst || rec.Dropped() != 0 {
		t.Errorf("the measured Ends kept %v rows and dropped %d: want the site's first %d and its strides after", got, rec.Dropped(), rowsFirst)
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

// TestFlightRecordCadence pins which launches End writes a flight record
// for — each site's 1st, 17th, 33rd, … launch and every flipped one — and
// that the per-iteration EWMA behind PredictedNS stays exact across the
// launches it skips.
func TestFlightRecordCadence(t *testing.T) {
	schema := features.TableI()
	fr := newFlightRecorder(schema)
	tn := seqPickingTuner(t).UseFlight(fr).ExploreEvery(1)
	log := &launchLog{tn: tn}
	ka, kb := raja.NewKernel("a", nil), raja.NewKernel("b", nil)
	iset := raja.NewRange(0, 50) // the model picks seq
	for i := 0; i < 400; i++ {
		k := ka
		if i%2 == 1 {
			k = kb
		}
		p, _ := log.Begin(k, iset)
		log.End(k, iset, p, 100+float64(i*37%11)*10)
	}

	// The per-iteration EWMA every launch of a site and policy saw before
	// it, over all prior launches of both, recorded or not, times the
	// launch's iterations.
	ewma := map[[2]uint64]float64{}
	predicted := make([]float64, len(log.launches))
	flips := map[uint64]int{}
	for i, l := range log.launches {
		key, iters := [2]uint64{l.k.ID, uint64(l.p.Policy)}, float64(l.iset.Len())
		prior := ewma[key]
		predicted[i] = prior * iters
		if prior == 0 {
			ewma[key] = l.ns / iters
		} else {
			ewma[key] = 0.75*prior + 0.25*(l.ns/iters)
		}
		if l.flipped {
			flips[l.k.ID]++
		}
	}
	if flips[ka.ID] == 0 || flips[kb.ID] == 0 {
		t.Fatalf("flips per site %v: the run never exercised the flipped-launch rule", flips)
	}
	want, recs := recordedLaunches(log.launches), fr.Snapshot()
	if len(recs) != len(want) || uint64(len(want)) != fr.Emitted() {
		t.Fatalf("%d records (%d emitted), the cadence selects %d of %d launches", len(recs), fr.Emitted(), len(want), len(log.launches))
	}
	for j, rec := range recs {
		i, l := want[j], log.launches[want[j]]
		if rec.Site != l.k.ID || rec.ObservedNS != l.ns || rec.Policy != int32(l.p.Policy) || rec.Explored != l.flipped {
			t.Fatalf("record %d: site %#x, %v ns, policy %d, explored %v; launch %d: site %#x, %v ns, policy %d, flipped %v",
				j, rec.Site, rec.ObservedNS, rec.Policy, rec.Explored, i, l.k.ID, l.ns, l.p.Policy, l.flipped)
		}
		if rec.PredictedNS != predicted[i] {
			t.Fatalf("launch %d predicted %v ns, the EWMA over every prior launch reads %v", i, rec.PredictedNS, predicted[i])
		}
	}

	// Each site has ended 200 launches; the next seven are off the cadence.
	emitted := fr.Emitted()
	p := raja.Params{Policy: raja.SeqExec}
	if allocs := testing.AllocsPerRun(6, func() { tn.End(ka, iset, p, 100) }); allocs != 0 {
		t.Errorf("unrecorded End: %v allocs/run, want 0", allocs)
	}
	if fr.Emitted() != emitted {
		t.Fatalf("unrecorded Ends emitted %d records", fr.Emitted()-emitted)
	}

	// A second recorder: the site's next recorded launch lands there, under
	// its name, and the first recorder hears nothing more.
	fr2 := newFlightRecorder(schema)
	tn.UseFlight(fr2)
	for i := 0; i < flightEvery && fr2.Emitted() == 0; i++ {
		p, _ := log.Begin(ka, iset)
		log.End(ka, iset, p, 100)
	}
	if recs := fr2.Snapshot(); len(recs) != 1 || recs[0].Site != ka.ID || recs[0].SiteName() != "a" {
		t.Fatalf("second recorder holds %d records: want a's next recorded launch", len(recs))
	}
	if fr.Emitted() != emitted {
		t.Fatalf("the detached recorder received %d records", fr.Emitted()-emitted)
	}
}

// TestFlightConcurrentLaunches drives four shared sites from four
// goroutines, one of which swaps flight recorders as it goes (run under
// -race): a region's launch count is an atomic cell, so no launch is lost
// from the count, and every record a recorder holds names its own site.
func TestFlightConcurrentLaunches(t *testing.T) {
	const goroutines, launches = 4, 2000
	schema := features.TableI()
	tn := seqPickingTuner(t).ExploreEvery(1)
	recorders := []*flight.Recorder{newFlightRecorder(schema), newFlightRecorder(schema)}
	tn.UseFlight(recorders[0])
	sites := []*raja.Kernel{raja.NewKernel("s0", nil), raja.NewKernel("s1", nil), raja.NewKernel("s2", nil), raja.NewKernel("s3", nil)}
	names := map[uint64]string{}
	for _, k := range sites {
		names[k.ID] = k.Name
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iset := raja.NewRange(0, 50)
			for i := 0; i < launches; i++ {
				if g == 0 && i%100 == 0 {
					tn.UseFlight(recorders[i/100%2])
				}
				k := sites[(g+i)%len(sites)]
				p, _ := tn.Begin(k, iset)
				tn.End(k, iset, p, 500)
			}
		}(g)
	}
	wg.Wait()
	var ended uint64
	for _, k := range sites {
		ended += tn.site(k.ID).ended.Load()
	}
	if ended != goroutines*launches {
		t.Errorf("the regions counted %d launches, the goroutines ran %d", ended, goroutines*launches)
	}
	for i, fr := range recorders {
		if fr.Emitted() == 0 {
			t.Errorf("recorder %d received no record", i)
		}
		for _, rec := range fr.Snapshot() {
			if name := rec.SiteName(); name != names[rec.Site] {
				t.Errorf("recorder %d holds a record of site %#x named %q, want %q", i, rec.Site, name, names[rec.Site])
			}
		}
	}
}

// TestTunerFlightDropStillFolds: a launch whose reservation is dropped —
// the recorder's only slot is held by a writer that has not committed —
// still moves its site's per-iteration EWMA.
func TestTunerFlightDropStillFolds(t *testing.T) {
	fr := flight.New(flight.Options{Capacity: 1})
	tn := NewTuner(features.TableI(), caliper.New(), raja.Params{}).UseFlight(fr)
	k, iset := raja.NewKernel("held", nil), raja.NewRange(0, 50)
	if held, _ := fr.Reserve(k.ID); held == nil {
		t.Fatal("the empty recorder refused a reservation")
	}
	tn.End(k, iset, raja.Params{}, 500) // the site's first launch: selected, and dropped
	if fr.Dropped() != 1 || fr.Emitted() != 0 {
		t.Fatalf("dropped %d, emitted %d: want the launch's record dropped", fr.Dropped(), fr.Emitted())
	}
	if got := loadNS(&tn.site(k.ID).perIterNS[raja.SeqExec]); got != 500.0/50 {
		t.Fatalf("after a dropped 500 ns launch of 50 iterations the EWMA reads %v ns, want 10", got)
	}
}

// deployedModel trains the policy model the repository benchmark deploys
// on a deck (LULESH sedov 8, CleverLeaf triple_pt 16): a two-step
// recording under each policy, labelled and fitted, then reduced to its
// top 5 features at depth 15 (the paper's Section IV-B configuration).
func deployedModel(tb testing.TB, schema *features.Schema, desc app.Descriptor, problem string, size int) *core.Model {
	tb.Helper()
	var frame *dataset.Frame
	for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
		ann, p := caliper.New(), desc.DefaultParams
		p.Policy = pol
		rec := NewRecorder(schema, ann)
		ctx := raja.NewSimContext(platform.NewSimClock(platform.SandyBridgeNode(), 0.05, 1), p)
		ctx.Observe = rec.Observe
		sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
		if err != nil {
			tb.Fatal(err)
		}
		sim.Step()
		sim.Step()
		if frame == nil {
			frame = rec.Frame()
		} else {
			frame.Append(rec.Frame())
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		tb.Fatal(err)
	}
	full, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := full.Reduce(set, 5, 15, core.TrainConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// stockTuner is the stock apollo-tune wiring over a deck's deployed model:
// telemetry at the tuner's row cadence, flight on, ExploreEvery(8). It
// runs one step of the deck and returns its launch log, each launch with
// the time it took there and the blackboard values set before it.
func stockTuner(tb testing.TB, desc app.Descriptor, problem string, size int) (*Tuner, *telemetry.Recorder, *caliper.Annotations, []loggedLaunch) {
	schema, ann := features.TableI(), caliper.New()
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1, Capacity: 1 << 12})
	tn := NewTuner(schema, ann, desc.DefaultParams).
		UsePolicyModel(deployedModel(tb, schema, desc, problem, size)).UseTelemetry(rec).
		UseFlight(flight.New(flight.Options{FeatureNames: schema.Names()})).ExploreEvery(8)
	log := &launchLog{tn: tn}
	sim, err := desc.New(app.Config{Ctx: simContext(log, desc.DefaultParams), Ann: ann, Problem: problem, Size: size})
	if err != nil {
		tb.Fatal(err)
	}
	sim.Step()
	return tn, rec, ann, log.launches
}

// BenchmarkTunerLaunch prices one launch's Begin + End under the stock
// apollo-tune wiring (stockTuner) over the launch sites of a LULESH sedov 8
// run, each handed the time it took there: ns/launch is Apollo's own cost
// per launch. LULESH writes its blackboard once a step, so the replay
// leaves it as the step left it.
func BenchmarkTunerLaunch(b *testing.B) {
	tn, rec, _, sites := stockTuner(b, lulesh.Descriptor(), "sedov", 8)
	rows := rec.Recorded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 { // keep the ring from filling, untimed: the uploader drains it off the launch path
			b.StopTimer()
			rec.Drain(0)
			b.StartTimer()
		}
		l := &sites[i%len(sites)]
		p, _ := tn.Begin(l.k, l.iset)
		tn.End(l.k, l.iset, p, l.ns)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/launch")
	b.ReportMetric(float64(rec.Recorded()-rows)/float64(b.N), "rows/launch")
}

// BenchmarkTunerLaunchCleverLeaf is BenchmarkTunerLaunch's twin over a
// CleverLeaf triple_pt 16 run, whose solver sets patch_id and rank before
// every launch: the replay does too. ns/launch and allocs/launch are the
// launches' less a pass of the same writes alone, so both are Begin +
// End's own.
func BenchmarkTunerLaunchCleverLeaf(b *testing.B) {
	tn, rec, ann, sites := stockTuner(b, cleverleaf.Descriptor(), "triple_pt", 16)
	write := func(l *loggedLaunch) {
		ann.Set(features.PatchID, l.board[0])
		ann.Set("rank", l.board[1])
	}
	launch := func(l *loggedLaunch) {
		write(l)
		p, _ := tn.Begin(l.k, l.iset)
		tn.End(l.k, l.iset, p, l.ns)
	}
	pass := func(f func(*loggedLaunch)) (mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range sites {
			f(&sites[i])
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	rec.Drain(0)
	allocs := float64(pass(launch)) - float64(pass(write))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			rec.Drain(0)
			b.StartTimer()
		}
		launch(&sites[i%len(sites)])
	}
	b.StopTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		write(&sites[i%len(sites)])
	}
	writes := time.Since(start)
	b.ReportMetric(float64((b.Elapsed()-writes).Nanoseconds())/float64(b.N), "ns/launch")
	b.ReportMetric(allocs/float64(len(sites)), "allocs/launch")
}
