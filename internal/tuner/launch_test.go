package tuner

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"apollo/internal/app"
	"apollo/internal/ares"
	"apollo/internal/caliper"
	"apollo/internal/cleverleaf"
	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/lulesh"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

// patchModel hand-builds a policy model that reads the blackboard:
// patch_id <= 1.5 → seq, else omp.
func patchModel(t *testing.T) *core.Model {
	m, err := core.NewModel(core.ExecutionPolicy, features.NewSchema(features.PatchID),
		&dtree.Tree{
			Root: &dtree.Node{Feature: 0, Threshold: 1.5,
				Left:  &dtree.Node{Feature: -1, Label: int(raja.SeqExec)},
				Right: &dtree.Node{Feature: -1, Label: int(raja.OmpParallelForExec)}},
			NumFeatures: 1, NumClasses: 2,
		})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBlackboardWrittenEveryLaunchAllocatesNothing: an AMR solver sets
// patch_id and rank before every launch (amrhydro.Solver.Launch). A launch
// reads the blackboard by slot, so Begin + End allocate nothing however
// often it is written — the writes' own allocations aside — and the
// decision follows the value just written.
func TestBlackboardWrittenEveryLaunchAllocatesNothing(t *testing.T) {
	schema, ann := features.TableI(), caliper.New()
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{Capacity: 1 << 14})
	tn := NewTuner(schema, ann, raja.Params{}).UsePolicyModel(patchModel(t)).
		UseTelemetry(rec).UseFlight(newFlightRecorder(schema)).ExploreEvery(8)
	k, iset := raja.NewKernel("patched", nil), raja.NewRange(0, 100)
	i := 0
	write := func() {
		i++
		ann.Set(features.PatchID, float64(i%4))
		ann.Set("rank", float64(i%2))
	}
	launch := func() {
		write()
		explored := tn.Explored()
		p, _ := tn.Begin(k, iset)
		want := raja.OmpParallelForExec
		if i%4 <= 1 {
			want = raja.SeqExec
		}
		if p.Policy != want && tn.Explored() == explored {
			t.Fatalf("launch %d at patch %d ran %v, want %v", i, i%4, p.Policy, want)
		}
		tn.End(k, iset, p, 100)
	}
	for range 64 { // warm the region, its plan and the trail decoder
		launch()
	}
	launches, writes := testing.AllocsPerRun(512, launch), testing.AllocsPerRun(512, write)
	if launches != writes && !raceEnabled {
		t.Errorf("a launch after two blackboard writes allocates %v objects, the writes alone %v: want Begin + End to add none", launches, writes)
	}
	if rec.Dropped() != 0 || rec.Recorded() == 0 {
		t.Fatalf("recorded %d rows, dropped %d: the launches must keep rows", rec.Recorded(), rec.Dropped())
	}
}

// TestEndFullRingCountsDrop: End reserves a row before it fills one, so a
// full ring counts the drop and extracts nothing for it; the launch still
// writes its flight record, and allocates nothing.
func TestEndFullRingCountsDrop(t *testing.T) {
	schema, ann := features.TableI(), caliper.New()
	ann.Set(features.Timestep, 3)
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{Capacity: 2})
	fr := newFlightRecorder(schema)
	tn := NewTuner(schema, ann, raja.Params{}).UseTelemetry(rec).UseFlight(fr)
	k, iset := raja.NewKernel("full", nil), raja.NewRange(0, 64)
	p := raja.Params{Policy: raja.SeqExec}
	for range rowsFirst { // the first two fill the two-row ring; the other 14 are dropped
		tn.End(k, iset, p, 100)
	}
	if rec.Recorded() != 2 || rec.Dropped() != rowsFirst-2 || fr.Emitted() != 1 {
		t.Fatalf("recorded %d, dropped %d, %d flight records: want 2, %d, 1", rec.Recorded(), rec.Dropped(), fr.Emitted(), rowsFirst-2)
	}
	// Launches 17 to 33: rows at the rowWeight cadence, all dropped; flight
	// records at 17 and 33.
	var rows uint64
	for m := uint64(rowsFirst + 1); m <= 2*rowsFirst+1; m++ {
		if rowWeight(m) > 0 {
			rows++
		}
	}
	dropped := rec.Dropped()
	allocs := testing.AllocsPerRun(rowsFirst, func() { tn.End(k, iset, p, 100) }) // one warm-up call, then 16
	if allocs != 0 && !raceEnabled {
		t.Errorf("End on a full ring: %v allocs/run, want 0", allocs)
	}
	if got := rec.Dropped() - dropped; got != rows || rec.Recorded() != 2 {
		t.Errorf("launches 17–33 dropped %d rows and recorded %d more, want %d dropped", got, rec.Recorded()-2, rows)
	}
	recs := fr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("%d flight records, want launches 1, 17 and 33", len(recs))
	}
	for _, r := range recs {
		if int(r.NumFeatures) != schema.Len() || r.Features[schema.Index(features.Timestep)] != 3 || r.Features[schema.Index(features.NumIndices)] != 64 {
			t.Errorf("record %d: %d features, timestep %v, num_indices %v", r.Seq, r.NumFeatures, r.Features[schema.Index(features.Timestep)], r.Features[schema.Index(features.NumIndices)])
		}
	}
}

// extractCheck runs a tuner under an application and checks every kept
// row and every flight record, as the launch leaves them, against
// Schema.ExtractInto under the same blackboard state. Its Begin writes an
// attribute the schema reads before every launch.
type extractCheck struct {
	t        *testing.T
	tn       *Tuner
	schema   *features.Schema
	ann      *caliper.Annotations
	rec      *telemetry.Recorder
	fr       *flight.Recorder
	want     []float64
	launches int
	rows     int // kept rows
	records  int // flight records
	shared   int // launches with both
}

func (c *extractCheck) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	c.launches++
	c.ann.Set("scratch", float64(c.launches%7))
	return c.tn.Begin(k, iset)
}

func (c *extractCheck) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	c.want = c.schema.ExtractInto(c.want, k, iset, c.ann)
	emitted := c.fr.Emitted()
	c.tn.End(k, iset, p, elapsedNS)
	same := func(what string, got []float64) {
		for f, w := range c.want {
			if math.Float64bits(got[f]) != math.Float64bits(w) {
				c.t.Fatalf("launch %d of %s, %s: %s reads %v, ExtractInto %v", c.launches, k.Name, c.schema.Name(f), what, got[f], w)
			}
		}
	}
	row := false
	if frame := c.rec.Drain(0); frame != nil {
		if frame.Len() != 1 {
			c.t.Fatalf("launch %d kept %d rows", c.launches, frame.Len())
		}
		same("the ring row", frame.Row(0))
		c.rows++
		row = true
	}
	if c.fr.Emitted() != emitted {
		recs := c.fr.Snapshot()
		r := recs[len(recs)-1]
		if int(r.NumFeatures) != len(c.want) || r.Site != k.ID {
			c.t.Fatalf("launch %d: record of site %#x holds %d features", c.launches, r.Site, r.NumFeatures)
		}
		same("the flight record", r.Features[:])
		if r.FeatureNS <= 0 || r.ModelNS <= 0 {
			c.t.Fatalf("launch %d: FeatureNS %v, ModelNS %v, want both positive", c.launches, r.FeatureNS, r.ModelNS)
		}
		c.records++
		if row {
			c.shared++
		}
	}
}

// TestInPlaceFillsMatchExtract is the differential test of End's in-place
// fills over the launch sites of all three applications, with the
// blackboard written between launches (by the AMR solvers and by the
// check itself): a row filled straight into its ring slot, a flight
// record's features and a row copied from the record all equal
// Schema.ExtractInto for the same launch, bit for bit.
func TestInPlaceFillsMatchExtract(t *testing.T) {
	for _, c := range []struct {
		desc    app.Descriptor
		problem string
		size    int
	}{
		{lulesh.Descriptor(), "sedov", 8},
		{cleverleaf.Descriptor(), "triple_pt", 16},
		{ares.Descriptor(), "sedov", 32},
	} {
		t.Run(c.desc.Name, func(t *testing.T) {
			schema := features.NewSchema(append(features.TableI().Names(), "scratch")...)
			ann := caliper.New()
			chk := &extractCheck{
				t: t, schema: schema, ann: ann,
				rec: telemetry.NewRecorder(schema, ann, telemetry.Options{}),
				fr:  newFlightRecorder(schema),
			}
			chk.tn = NewTuner(schema, ann, c.desc.DefaultParams).UsePolicyModel(thresholdModel(t, 96)).
				UseTelemetry(chk.rec).UseFlight(chk.fr).ExploreEvery(8)
			sim, err := c.desc.New(app.Config{Ctx: simContext(chk, c.desc.DefaultParams), Ann: ann, Problem: c.problem, Size: c.size})
			if err != nil {
				t.Fatal(err)
			}
			for range 3 {
				sim.Step()
			}
			if chk.shared == 0 || chk.rows == chk.shared || chk.records == 0 || uint64(chk.launches) != chk.tn.Decisions() {
				t.Fatalf("%d launches (%d decisions): %d rows, %d records, %d with both — want rows filled both ways",
					chk.launches, chk.tn.Decisions(), chk.rows, chk.records, chk.shared)
			}
		})
	}
}

// flakySource answers every third call with no projector set.
type flakySource struct {
	n  atomic.Uint64
	ps *Projectors
}

func (s *flakySource) Projectors() *Projectors {
	if s.n.Add(1)%3 == 0 {
		return nil
	}
	return s.ps
}

// TestDecisionsExactConcurrent: Begin counts a launch once, in the site's
// region or, with no projector set, in the tuner; Decisions adds them and
// loses none with eight goroutines sharing five sites (run under -race).
func TestDecisionsExactConcurrent(t *testing.T) {
	const goroutines, launches = 8, 1000
	schema := features.TableI()
	tn := NewTuner(schema, caliper.New(), raja.Params{}).ExploreEvery(4).
		UseSource(&flakySource{ps: &Projectors{Policy: trainPolicyModel(t, schema).NewProjector(schema)}})
	var sites []*raja.Kernel
	for range 5 {
		sites = append(sites, raja.NewKernel("shared", nil))
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			iset := raja.NewRange(0, 64)
			for i := range launches {
				k := sites[(g+i)%len(sites)]
				p, _ := tn.Begin(k, iset)
				tn.End(k, iset, p, 100)
			}
		}()
	}
	wg.Wait()
	if got := tn.Decisions(); got != goroutines*launches {
		t.Errorf("Decisions() = %d, the goroutines launched %d", got, goroutines*launches)
	}
	if tn.decisions.Load() == 0 {
		t.Error("no launch ran without a projector set: the source never answered nil")
	}
}

// TestSiteTableFarID: the site table grows to a kernel whose ID is far
// above the others', keeps the regions it had, and answers an ID past
// its end with nil.
func TestSiteTableFarID(t *testing.T) {
	tn := seqPickingTuner(t)
	near := raja.NewKernel("near", nil)
	for range 4096 {
		raja.NewKernel("unlaunched", nil)
	}
	far := raja.NewKernel("far", nil)
	iset := raja.NewRange(0, 50)
	launch := func(k *raja.Kernel) {
		p, _ := tn.Begin(k, iset)
		tn.End(k, iset, p, 100)
	}
	launch(near)
	region := tn.site(near.ID)
	launch(far)
	launch(near)
	if tn.site(near.ID) != region || region.launches.Load() != 2 {
		t.Fatalf("near's region was replaced or lost a launch when the table grew")
	}
	s := tn.site(far.ID)
	if s == nil || s == region || s.launches.Load() != 1 || uint64(len(*tn.sites.Load())) != far.ID+1 {
		t.Fatalf("far (ID %d) has region %p, table length %d", far.ID, s, len(*tn.sites.Load()))
	}
	if x := s.full.Fill(nil, iset, nil); x[tn.schema.Index(features.LoopID)] != float64(far.ID) {
		t.Errorf("far's region fills loop_id %v, want %d", x[tn.schema.Index(features.LoopID)], far.ID)
	}
	if tn.site(far.ID+1) != nil || tn.site(math.MaxUint64) != nil || tn.Decisions() != 3 {
		t.Errorf("IDs past the table's end must read no region; %d decisions, want 3", tn.Decisions())
	}
}
