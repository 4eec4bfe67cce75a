package tuner

import (
	"sync"
	"sync/atomic"
	"testing"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/instmix"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

func simContext(hooks raja.Hooks, def raja.Params) *raja.Context {
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, def)
	ctx.Hooks = hooks
	return ctx
}

func TestRecorderForcesSweepAndRecords(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	ann.Set(features.Timestep, 3)
	sweep := raja.Params{Policy: raja.OmpParallelForExec, Chunk: 64}
	rec := NewRecorder(schema, ann)
	ctx := simContext(nil, sweep)
	ctx.Observe = rec.Observe

	k := raja.NewKernel("stress", instmix.NewMix().With(instmix.Add, 6))
	raja.ForAll(ctx, k, raja.NewRange(0, 100), func(int) {})
	raja.ForAll(ctx, k, raja.NewRange(0, 200), func(int) {})

	if rec.Samples() != 2 {
		t.Fatalf("recorded %d samples, want 2", rec.Samples())
	}
	frame := rec.Frame()
	if got := frame.At(0, core.ColPolicy); got != float64(raja.OmpParallelForExec) {
		t.Errorf("policy column = %g, want forced omp", got)
	}
	if got := frame.At(0, core.ColChunk); got != 64 {
		t.Errorf("chunk column = %g, want 64", got)
	}
	if frame.At(0, core.ColTimeNS) <= 0 {
		t.Error("time_ns not recorded")
	}
	if got := frame.At(1, features.NumIndices); got != 200 {
		t.Errorf("num_indices = %g, want 200", got)
	}
	if got := frame.At(0, features.Timestep); got != 3 {
		t.Errorf("timestep = %g, want 3", got)
	}
}

func trainPolicyModel(t testing.TB, schema *features.Schema) *core.Model {
	t.Helper()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 128, 512, 2048, 8192, 32768, 131072} {
		seqRow := make([]float64, schema.Len()+3)
		ompRow := make([]float64, schema.Len()+3)
		seqRow[ni], ompRow[ni] = float64(n), float64(n)
		seqRow[schema.Len()] = float64(raja.SeqExec)
		ompRow[schema.Len()] = float64(raja.OmpParallelForExec)
		seqRow[schema.Len()+2] = float64(n) * 10
		ompRow[schema.Len()+2] = 8000 + float64(n)*10/8
		frame.AddRow(seqRow)
		frame.AddRow(ompRow)
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTunerSelectsPolicyByIterationCount(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	ann := caliper.New()
	tn := NewTuner(schema, ann, raja.Params{Policy: raja.OmpParallelForExec}).UsePolicyModel(model)

	k := raja.NewKernel("k", nil)
	small, ok := tn.Begin(k, raja.NewRange(0, 50))
	if !ok || small.Policy != raja.SeqExec {
		t.Errorf("small launch tuned to %v, want seq", small)
	}
	large, _ := tn.Begin(k, raja.NewRange(0, 100000))
	if large.Policy != raja.OmpParallelForExec {
		t.Errorf("large launch tuned to %v, want omp", large)
	}
	if tn.Decisions() != 2 {
		t.Errorf("decisions = %d, want 2", tn.Decisions())
	}
}

func TestTunerPreservesBaseChunkWithoutChunkModel(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{Policy: raja.SeqExec, Chunk: 128}).UsePolicyModel(model)
	p, _ := tn.Begin(raja.NewKernel("k", nil), raja.NewRange(0, 1000000))
	if p.Chunk != 128 {
		t.Errorf("chunk = %d, want preserved 128", p.Chunk)
	}
}

func TestUsePolicyModelRejectsWrongParam(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong-parameter model should panic")
		}
	}()
	schema := features.TableI()
	NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(&core.Model{Param: core.ChunkSize})
}

func TestEndToEndRecordTrainTune(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	mix := instmix.NewMix().With(instmix.Add, 6).With(instmix.Mulpd, 4).With(instmix.Movsd, 8)
	k := raja.NewKernel("roundtrip", mix)
	sizes := []int{16, 64, 256, 1024, 4096, 16384, 65536, 262144}

	// Record one run per policy variant, as the paper's training does.
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
		rec := NewRecorder(schema, ann)
		ctx := simContext(nil, raja.Params{Policy: pol})
		ctx.Observe = rec.Observe
		for _, n := range sizes {
			raja.ForAll(ctx, k, raja.NewRange(0, n), func(int) {})
		}
		frame.Append(rec.Frame())
	}

	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Tuned execution must beat static OpenMP-everywhere on this mix of
	// small and large launches.
	machine := platform.SandyBridgeNode()
	run := func(hooks raja.Hooks, def raja.Params) float64 {
		clk := platform.NewSimClock(machine, 0, 0)
		ctx := raja.NewSimContext(clk, def)
		ctx.Hooks = hooks
		for _, n := range sizes {
			raja.ForAll(ctx, k, raja.NewRange(0, n), func(int) {})
		}
		return clk.NowNS()
	}
	tuned := run(NewTuner(schema, ann, raja.Params{Policy: raja.OmpParallelForExec}).UsePolicyModel(model), raja.Params{})
	static := run(nil, raja.Params{Policy: raja.OmpParallelForExec})
	if tuned >= static {
		t.Errorf("tuned time %g should beat static omp %g", tuned, static)
	}
}

// TestConcurrentBeginIsRaceFree drives one tuner from two goroutines — the
// multi-context case — while a third hot-swaps models through the tuner's
// own source. Begin takes no locks, so this must pass under -race with no
// contention and no torn projector reads.
func TestConcurrentBeginIsRaceFree(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{Policy: raja.OmpParallelForExec}).UsePolicyModel(model)

	var wg sync.WaitGroup
	const launches = 2000
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := raja.NewKernel("worker", nil)
			for i := 0; i < launches; i++ {
				n := 50
				if (i+g)%2 == 0 {
					n = 100000
				}
				p, ok := tn.Begin(k, raja.NewRange(0, n))
				if !ok {
					t.Error("Begin declined a launch")
					return
				}
				if p.Policy != raja.SeqExec && p.Policy != raja.OmpParallelForExec {
					t.Errorf("torn decision: %v", p.Policy)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tn.UsePolicyModel(model)
		}
	}()
	wg.Wait()
	if got := tn.Decisions(); got != 2*launches {
		t.Errorf("decisions = %d, want %d (atomic counter lost updates)", got, 2*launches)
	}
}

// swapCount is a ModelSource that counts reads, proving Begin loads the
// source exactly once per launch.
type countingSource struct {
	inner SwapSource
	reads atomic.Uint64
}

func (s *countingSource) Projectors() *Projectors {
	s.reads.Add(1)
	return s.inner.Projectors()
}

func TestUseSourceHotSwapsMidRun(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	src := &countingSource{}
	tn := NewTuner(schema, caliper.New(), raja.Params{Policy: raja.OmpParallelForExec}).UseSource(src)

	k := raja.NewKernel("k", nil)
	small := raja.NewRange(0, 50)
	// Empty source: base parameters.
	if p, _ := tn.Begin(k, small); p.Policy != raja.OmpParallelForExec {
		t.Errorf("empty source gave %v, want base omp", p.Policy)
	}
	// The source publishes a model; the very next launch uses it.
	src.inner.Store(&Projectors{Policy: model.NewProjector(schema)})
	if p, _ := tn.Begin(k, small); p.Policy != raja.SeqExec {
		t.Errorf("after swap got %v, want seq from model", p.Policy)
	}
	if src.reads.Load() != 2 {
		t.Errorf("source read %d times for 2 launches", src.reads.Load())
	}
	// Reverting to the tuner's own source restores UsePolicyModel behavior.
	tn.UseSource(nil)
	if p, _ := tn.Begin(k, small); p.Policy != raja.OmpParallelForExec {
		t.Errorf("after revert got %v, want base omp", p.Policy)
	}
}

func TestSnapshotIsIndependentCopy(t *testing.T) {
	schema := features.TableI()
	rec := NewRecorder(schema, caliper.New())
	ctx := simContext(nil, raja.Params{Policy: raja.SeqExec})
	ctx.Observe = rec.Observe
	k := raja.NewKernel("k", nil)
	raja.ForAll(ctx, k, raja.NewRange(0, 100), func(int) {})

	snap := rec.Snapshot()
	if snap.Len() != 1 {
		t.Fatalf("snapshot has %d rows, want 1", snap.Len())
	}
	// Recording continues; the snapshot must not grow or change.
	raja.ForAll(ctx, k, raja.NewRange(0, 200), func(int) {})
	if snap.Len() != 1 {
		t.Errorf("snapshot grew to %d rows after more recording", snap.Len())
	}
	if rec.Frame().Len() != 2 {
		t.Errorf("live frame has %d rows, want 2", rec.Frame().Len())
	}
	// Mutating the snapshot must not corrupt the live frame.
	snap.AddRow(make([]float64, schema.Len()+3))
	if rec.Frame().Len() != 2 {
		t.Error("snapshot mutation leaked into the live frame")
	}
}

// TestSnapshotWhileRecordingRaceFree exercises the documented contract:
// Snapshot is the safe way to export mid-run. Run under -race.
func TestSnapshotWhileRecordingRaceFree(t *testing.T) {
	schema := features.TableI()
	rec := NewRecorder(schema, caliper.New())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ctx := simContext(nil, raja.Params{Policy: raja.SeqExec})
		ctx.Observe = rec.Observe
		k := raja.NewKernel("k", nil)
		for i := 0; i < 500; i++ {
			raja.ForAll(ctx, k, raja.NewRange(0, 10+i), func(int) {})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			snap := rec.Snapshot()
			if snap.Len() > 0 && snap.At(snap.Len()-1, core.ColTimeNS) < 0 {
				t.Error("torn row")
				return
			}
		}
	}()
	wg.Wait()
	if rec.Samples() != 500 {
		t.Errorf("recorded %d samples, want 500", rec.Samples())
	}
}

func TestTunerEndFeedsTelemetry(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	tn := NewTuner(schema, ann, raja.Params{Policy: raja.SeqExec})
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{})
	tn.UseTelemetry(rec)

	ctx := simContext(tn, raja.Params{})
	k := raja.NewKernel("telemetered", nil)
	raja.ForAll(ctx, k, raja.NewRange(0, 64), func(int) {})

	frame := rec.Drain(0)
	if frame == nil || frame.Len() != 1 {
		t.Fatalf("telemetry frame = %v, want 1 row", frame)
	}
	if got := frame.At(0, features.NumIndices); got != 64 {
		t.Errorf("num_indices = %g, want 64", got)
	}
	if got := frame.At(0, core.ColPolicy); got != float64(raja.SeqExec) {
		t.Errorf("policy = %g, want executed policy", got)
	}
	if frame.At(0, core.ColTimeNS) <= 0 {
		t.Error("elapsed time not captured")
	}

	// Detaching stops the feed without stopping launches.
	tn.UseTelemetry(nil)
	raja.ForAll(ctx, k, raja.NewRange(0, 64), func(int) {})
	if rec.Seen() != 1 {
		t.Errorf("detached recorder saw %d launches, want 1", rec.Seen())
	}
}

func TestTunerExploreEveryFlipsPolicy(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model)
	tn.ExploreEvery(4)

	k := raja.NewKernel("explore", nil)
	small := raja.NewRange(0, 50) // model picks seq
	// Both policies cost 100 ns here, so the budget alone sets the rate:
	// one look per 1/ε launches, each on the site's own fourth launch.
	const launches, ns = 2000, 100.0
	flips, last := 0, -2
	for i := 0; i < launches; i++ {
		p, _ := tn.Begin(k, small)
		tn.End(k, small, p, ns)
		if p.Policy == raja.SeqExec {
			continue
		}
		flips++
		if i == last+1 {
			t.Fatalf("launches %d and %d both flipped", last, i)
		}
		if (i+1)%4 != 0 {
			t.Fatalf("launch %d flipped off the site's every-4th cadence", i)
		}
		if spent, budget := float64(flips)*ns, exploreShare*float64(i+1)*ns; spent > budget {
			t.Fatalf("after launch %d exploration took %g ns of a budget of %g", i, spent, budget)
		}
		last = i
	}
	if flips > launches/4 || flips < launches/128 {
		t.Errorf("%d of %d launches flipped, want about 1 in %g and never more than 1 in 4", flips, launches, 1/exploreShare)
	}
	if tn.Explored() != uint64(flips) {
		t.Errorf("Explored() = %d, want the %d flips seen", tn.Explored(), flips)
	}
	if got, want := tn.ExploreShare(), float64(flips)/launches; got != want {
		t.Errorf("ExploreShare() = %g, want %g", got, want)
	}
	tn.ExploreEvery(0)
	for i := 0; i < 256; i++ {
		p, _ := tn.Begin(k, small)
		tn.End(k, small, p, ns)
		if p.Policy != raja.SeqExec {
			t.Fatal("exploration still active after disable")
		}
	}
}

// TestTunerEndUnsampledZeroAlloc is the acceptance criterion for the
// telemetry fast path: an unsampled End must allocate nothing.
func TestTunerEndUnsampledZeroAlloc(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	tn := NewTuner(schema, ann, raja.Params{})
	k := raja.NewKernel("alloc", nil)
	iset := raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.OmpParallelForExec}

	// No recorder attached.
	if allocs := testing.AllocsPerRun(1000, func() { tn.End(k, iset, p, 100) }); allocs != 0 {
		t.Errorf("End with no recorder: %v allocs/run, want 0", allocs)
	}

	// Recorder attached, but this launch is unsampled (1 in 1<<62).
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1 << 62})
	tn.UseTelemetry(rec)
	if allocs := testing.AllocsPerRun(1000, func() { tn.End(k, iset, p, 100) }); allocs != 0 {
		t.Errorf("unsampled End: %v allocs/run, want 0", allocs)
	}

	// The sampled path itself must not allocate either: features are
	// extracted straight into the preallocated ring slot.
	rec2 := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1, Capacity: 1 << 12})
	tn.UseTelemetry(rec2)
	if allocs := testing.AllocsPerRun(1000, func() { tn.End(k, iset, p, 100) }); allocs != 0 {
		t.Errorf("sampled End: %v allocs/run, want 0", allocs)
	}
}

// BenchmarkTunerEndUnsampled measures the per-launch cost of the
// telemetry hook when the launch is not sampled — the price every
// production launch pays once telemetry is on (EXPERIMENTS.md).
func BenchmarkTunerEndUnsampled(b *testing.B) {
	schema := features.TableI()
	ann := caliper.New()
	tn := NewTuner(schema, ann, raja.Params{})
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1 << 62})
	tn.UseTelemetry(rec)
	k := raja.NewKernel("bench", nil)
	iset := raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.OmpParallelForExec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.End(k, iset, p, 100)
	}
}

// BenchmarkTunerEndSampled measures the full capture cost when every
// launch is sampled: extract into the ring slot and publish.
func BenchmarkTunerEndSampled(b *testing.B) {
	schema := features.TableI()
	ann := caliper.New()
	tn := NewTuner(schema, ann, raja.Params{})
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1, Capacity: 1 << 16})
	tn.UseTelemetry(rec)
	k := raja.NewKernel("bench", nil)
	iset := raja.NewRange(0, 100)
	p := raja.Params{Policy: raja.OmpParallelForExec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			rec.Drain(0) // keep the ring from filling
		}
		tn.End(k, iset, p, 100)
	}
}

// BenchmarkTunerEndNoTelemetry is the baseline: End before this PR.
func BenchmarkTunerEndNoTelemetry(b *testing.B) {
	schema := features.TableI()
	tn := NewTuner(schema, caliper.New(), raja.Params{})
	k := raja.NewKernel("bench", nil)
	iset := raja.NewRange(0, 100)
	p := raja.Params{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.End(k, iset, p, 100)
	}
}
