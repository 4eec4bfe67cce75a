package apollo_test

import (
	"path/filepath"
	"strings"
	"testing"

	"apollo"
)

// TestPublicAPIRoundTrip drives the full workflow through the public
// facade only: record under each policy variant, label, train,
// cross-validate, save/load, and tune — the complete paper workflow.
func TestPublicAPIRoundTrip(t *testing.T) {
	schema := apollo.TableISchema()
	ann := apollo.NewAnnotations()
	clk := apollo.NewSimClock(apollo.SandyBridgeNode(), 0.05, 1)
	mix := apollo.NewMix().
		With(apollo.OpAdd, 6).With(apollo.OpMulpd, 4).With(apollo.OpMovsd, 8)
	k := apollo.NewKernel("api::work", mix)
	sizes := []int{32, 128, 512, 2048, 8192, 32768, 131072}

	// Record one run per policy variant.
	var frames []*apollo.Frame
	for _, pol := range []apollo.Policy{apollo.SeqExec, apollo.OmpParallelForExec} {
		rec := apollo.NewRecorder(schema, ann)
		ctx := apollo.NewSimContext(clk, apollo.Params{Policy: pol})
		ctx.Observe = rec.Observe
		for _, n := range sizes {
			apollo.ForAll(ctx, k, apollo.NewRange(0, n), func(int) {})
		}
		frames = append(frames, rec.Frame())
	}
	all := frames[0]
	all.Append(frames[1])

	set, err := apollo.Label(all, schema, apollo.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	model, err := apollo.Train(set, apollo.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := apollo.CrossValidate(set, 5, 7, apollo.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cv.MeanAccuracy < 0.5 {
		t.Errorf("CV accuracy %g too low", cv.MeanAccuracy)
	}

	// Save, reload, tune.
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := apollo.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	tn := apollo.NewTuner(schema, ann, apollo.Params{Policy: apollo.OmpParallelForExec}).
		UsePolicyModel(loaded)
	small, _ := tn.Begin(k, apollo.NewRange(0, 16))
	large, _ := tn.Begin(k, apollo.NewRange(0, 1<<20))
	if small.Policy != apollo.SeqExec {
		t.Errorf("small launch tuned to %v, want seq", small)
	}
	if large.Policy != apollo.OmpParallelForExec {
		t.Errorf("large launch tuned to %v, want omp", large)
	}

	// Generated code is the paper's nested-conditional form.
	src := apollo.GenerateGo(loaded, "tuned", "Decide")
	if !strings.Contains(src, "if numIndices <= ") {
		t.Errorf("generated code missing condition:\n%s", src)
	}
}

// TestRealTeamExecution exercises the wall-clock path of the public API:
// a real goroutine team executing both policies with identical results.
func TestRealTeamExecution(t *testing.T) {
	tm := apollo.NewTeam(4)
	defer tm.Close()
	k := apollo.NewKernel("api::sum", nil)

	run := func(p apollo.Params) []float64 {
		ctx := apollo.NewContext(tm, p)
		out := make([]float64, 10000)
		apollo.ForAll(ctx, k, apollo.NewRange(0, len(out)), func(i int) {
			out[i] = float64(i) * 1.5
		})
		return out
	}
	seq := run(apollo.Params{Policy: apollo.SeqExec})
	omp := run(apollo.Params{Policy: apollo.OmpParallelForExec, Chunk: 64})
	for i := range seq {
		if seq[i] != omp[i] {
			t.Fatalf("policies disagree at %d", i)
		}
	}
}

// TestIndexSetKinds checks the public index-set constructors.
func TestIndexSetKinds(t *testing.T) {
	is := apollo.NewIndexSet(
		apollo.RangeSegment{Begin: 0, End: 4},
		apollo.ListSegment{Indices: []int{10, 12}},
	)
	if is.Len() != 6 || is.NumSegments() != 2 {
		t.Errorf("index set wrong: len=%d segs=%d", is.Len(), is.NumSegments())
	}
	if apollo.NewList([]int{5}).Len() != 1 {
		t.Error("NewList wrong")
	}
}

// TestAnnotationsFlowIntoSamples checks that application features reach
// recorded samples through the public API.
func TestAnnotationsFlowIntoSamples(t *testing.T) {
	schema := apollo.TableISchema()
	ann := apollo.NewAnnotations()
	ann.Set("timestep", 9)
	ann.SetString("problem_name", "sedov")
	clk := apollo.NewSimClock(apollo.SandyBridgeNode(), 0, 0)
	rec := apollo.NewRecorder(schema, ann)
	ctx := apollo.NewSimContext(clk, apollo.Params{Policy: apollo.SeqExec})
	ctx.Observe = rec.Observe
	apollo.ForAll(ctx, apollo.NewKernel("api::k", nil), apollo.NewRange(0, 8), func(int) {})
	frame := rec.Frame()
	if frame.Len() != 1 {
		t.Fatal("no sample")
	}
	if frame.At(0, "timestep") != 9 {
		t.Error("timestep annotation lost")
	}
}

// TestRecordColumnsLayout pins the public frame layout contract.
func TestRecordColumnsLayout(t *testing.T) {
	schema := apollo.TableISchema()
	cols := apollo.RecordColumns(schema)
	if len(cols) != schema.Len()+3 {
		t.Fatalf("got %d columns", len(cols))
	}
	tail := cols[len(cols)-3:]
	if tail[0] != "policy" || tail[1] != "chunk" || tail[2] != "time_ns" {
		t.Errorf("trailing columns = %v", tail)
	}
}

// TestTraceFacade drives the tracing exports through the public API.
func TestTraceFacade(t *testing.T) {
	clk := apollo.NewSimClock(apollo.SandyBridgeNode(), 0, 0)
	ctx := apollo.NewSimContext(clk, apollo.Params{Policy: apollo.SeqExec})
	tr := apollo.NewTracer(0)
	ctx.Observe = tr.Observe
	k := apollo.NewKernel("facade::traced", nil)
	apollo.ForAll(ctx, k, apollo.NewRange(0, 32), func(int) {})
	apollo.ForAll(ctx, k, apollo.NewRange(0, 64), func(int) {})
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("traced %d events", len(events))
	}
	sums := apollo.SummarizeTrace(events)
	if len(sums) != 1 || sums[0].Launches != 2 {
		t.Errorf("summary wrong: %+v", sums)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := apollo.SaveChromeTrace(path, events); err != nil {
		t.Fatal(err)
	}
}

// TestModelSourceFacade hot-swaps a projector set through the public
// SwapSource/UseSource surface.
func TestModelSourceFacade(t *testing.T) {
	schema := apollo.TableISchema()
	var src apollo.SwapSource
	base := apollo.Params{Policy: apollo.SeqExec}
	tn := apollo.NewTuner(schema, apollo.NewAnnotations(), base).UseSource(&src)
	k := apollo.NewKernel("facade::source", nil)

	// Empty source: base parameters.
	if p, ok := tn.Begin(k, apollo.NewRange(0, 8)); !ok || p != base {
		t.Fatalf("empty source gave %+v", p)
	}
	var ms apollo.ModelSource = &src
	if ms.Projectors() == nil {
		t.Fatal("SwapSource returned nil projector set")
	}
	src.Store(&apollo.ProjectorSet{})
	if p, _ := tn.Begin(k, apollo.NewRange(0, 8)); p != base {
		t.Fatalf("empty projector set gave %+v", p)
	}
}
