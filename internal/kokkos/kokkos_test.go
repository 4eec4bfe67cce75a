package kokkos

import (
	"fmt"
	"sync/atomic"
	"testing"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/instmix"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/team"
	"apollo/internal/tuner"
)

func simCtx(def raja.Params) (*raja.Context, *platform.SimClock) {
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	return raja.NewSimContext(clk, def), clk
}

func TestParallelForCoversRange(t *testing.T) {
	ctx, _ := simCtx(raja.Params{Policy: raja.SeqExec})
	var count int64
	ParallelFor(ctx, "kokkos_test::cover", nil, RangePolicy{Begin: 3, End: 103}, func(i int) {
		if i < 3 || i >= 103 {
			t.Errorf("index %d out of range", i)
		}
		atomic.AddInt64(&count, 1)
	})
	if count != 100 {
		t.Errorf("body ran %d times, want 100", count)
	}
}

func TestKernelRegistryDeduplicates(t *testing.T) {
	ctx, _ := simCtx(raja.Params{Policy: raja.SeqExec})
	before := len(Kernels())
	for i := 0; i < 5; i++ {
		ParallelFor(ctx, "kokkos_test::dedup", nil, RangePolicy{End: 4}, func(int) {})
	}
	after := len(Kernels())
	if after != before+1 {
		t.Errorf("5 same-label dispatches registered %d new sites, want 1", after-before)
	}
}

func TestExplicitSpaceOverridesApollo(t *testing.T) {
	// Even with a default of OpenMP, a Serial dispatch must run
	// sequentially — and be timed as sequential.
	machine := platform.SandyBridgeNode()
	mix := instmix.NewMix().With(instmix.Add, 6)
	ctx, _ := simCtx(raja.Params{Policy: raja.OmpParallelForExec})
	elapsedSerial := ParallelFor(ctx, "kokkos_test::serial", mix, RangePolicy{Space: Serial, End: 100}, func(int) {})
	want := machine.SeqTimeNS(mix, 100)
	if elapsedSerial != want {
		t.Errorf("Serial dispatch timed %g, want seq time %g", elapsedSerial, want)
	}
	elapsedOMP := ParallelFor(ctx, "kokkos_test::omp", mix, RangePolicy{Space: OpenMP, End: 100}, func(int) {})
	if elapsedOMP <= elapsedSerial {
		t.Errorf("100-iteration OpenMP dispatch (%g) should pay fork cost vs serial (%g)", elapsedOMP, elapsedSerial)
	}
}

func TestDefaultSpaceUsesApolloHooks(t *testing.T) {
	// With a tuner installed, DefaultExecSpace dispatches follow the
	// model: small → seq, large → omp.
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 512, 8192, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			if pol == raja.SeqExec {
				row[schema.Len()+2] = float64(n) * 10
			} else {
				row[schema.Len()+2] = 9000 + float64(n)*10/8
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ann := caliper.New()
	tn := tuner.NewTuner(schema, ann, raja.Params{}).UsePolicyModel(model)
	machine := platform.SandyBridgeNode()
	mix := instmix.NewMix().With(instmix.Add, 6)

	ctx, _ := simCtx(raja.Params{})
	ctx.Hooks = tn
	small := ParallelFor(ctx, "kokkos_test::tuned_small", mix, RangePolicy{End: 64}, func(int) {})
	if small != machine.SeqTimeNS(mix, 64) {
		t.Errorf("tuned small dispatch not sequential: %g", small)
	}
	large := ParallelFor(ctx, "kokkos_test::tuned_large", mix, RangePolicy{End: 1 << 20}, func(int) {})
	if large >= machine.SeqTimeNS(mix, 1<<20) {
		t.Errorf("tuned large dispatch not parallel: %g", large)
	}
}

// TestExplicitSpaceIsNotADecision pins the contract of an explicit
// execution space: the launch reaches no decider, so a tuner on the
// context, even one exploring at every launch, books neither a decision
// nor exploration for it.
func TestExplicitSpaceIsNotADecision(t *testing.T) {
	tn := tuner.NewTuner(features.TableI(), caliper.New(), raja.Params{Policy: raja.OmpParallelForExec}).ExploreEvery(1)
	ctx, _ := simCtx(raja.Params{})
	ctx.Hooks = tn
	mix := instmix.NewMix().With(instmix.Add, 6)
	for i := 0; i < 2000; i++ {
		ParallelFor(ctx, "kokkos_test::pinned", mix, RangePolicy{Space: Serial, End: 256}, func(int) {})
	}
	ParallelFor(ctx, "kokkos_test::pinned", mix, RangePolicy{Space: OpenMP, End: 256}, func(int) {})
	if d, e, sh := tn.Decisions(), tn.Explored(), tn.ExploreShare(); d != 0 || e != 0 || sh != 0 {
		t.Errorf("pinned dispatches booked decisions=%d explored=%d explore_share=%g, want all 0", d, e, sh)
	}
}

func TestRecorderSeesForcedSpaceDispatches(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	rec := tuner.NewRecorder(schema, ann)
	ctx, _ := simCtx(raja.Params{Policy: raja.SeqExec})
	ctx.Observe = rec.Observe
	ParallelFor(ctx, "kokkos_test::recorded", nil, RangePolicy{Space: OpenMP, End: 50}, func(int) {})
	if rec.Samples() != 1 {
		t.Errorf("recorder saw %d samples, want 1", rec.Samples())
	}
}

func TestParallelForMDRowMajor(t *testing.T) {
	ctx, _ := simCtx(raja.Params{Policy: raja.SeqExec})
	var order []int
	ParallelForMD(ctx, "kokkos_test::md", nil,
		MDRangePolicy{Begin0: 1, End0: 3, Begin1: 10, End1: 13},
		func(i0, i1 int) { order = append(order, i0*100+i1) })
	want := []int{110, 111, 112, 210, 211, 212}
	if len(order) != len(want) {
		t.Fatalf("got %d iterations, want %d", len(order), len(want))
	}
	for i, v := range want {
		if order[i] != v {
			t.Errorf("iteration %d = %d, want %d", i, order[i], v)
		}
	}
}

func TestParallelReduceSum(t *testing.T) {
	tm := team.New(4)
	defer tm.Close()
	ctx := &raja.Context{Team: tm, Default: raja.Params{Policy: raja.OmpParallelForExec, Chunk: 7}}
	sum, _ := ParallelReduce(ctx, "kokkos_test::reduce", nil, RangePolicy{End: 1000}, func(i int) float64 {
		return float64(i)
	})
	if want := float64(1000*999) / 2; sum != want {
		t.Errorf("reduce = %g, want %g", sum, want)
	}
	empty, _ := ParallelReduce(ctx, "kokkos_test::reduce_empty", nil, RangePolicy{End: 0}, func(int) float64 { return 1 })
	if empty != 0 {
		t.Error("empty reduce should be 0")
	}
}

func TestTeamPolicy(t *testing.T) {
	ctx, _ := simCtx(raja.Params{Policy: raja.SeqExec})
	visits := make([]int, 4*8)
	ParallelForTeam(ctx, "kokkos_test::team", nil, TeamPolicy{LeagueSize: 4, TeamSize: 8},
		func(m TeamMember) {
			if m.LeagueSize() != 4 {
				t.Errorf("LeagueSize = %d", m.LeagueSize())
			}
			m.TeamThreadRange(8, func(i int) {
				visits[m.LeagueRank()*8+i]++
			})
		})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("slot %d visited %d times", i, v)
		}
	}
}

func TestSpaceNames(t *testing.T) {
	for s, want := range map[ExecSpace]string{Serial: "Serial", OpenMP: "OpenMP", DefaultExecSpace: "DefaultExecSpace"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestCrossFrontendModelReuse(t *testing.T) {
	// The headline of this package: a model trained on RAJA-recorded
	// samples tunes a Kokkos dispatch, because the feature vectors are
	// identical for identical launches.
	schema := features.TableI()
	ann := caliper.New()
	machine := platform.SandyBridgeNode()
	mix := instmix.NewMix().With(instmix.Mulpd, 8).With(instmix.Movsd, 6)

	// Record through the RAJA frontend. The kernel site is shared
	// across the per-variant training runs, as a source loop would be.
	k := raja.NewKernel("kokkos_test::rajakernel", mix)
	var all *dataset.Frame
	for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
		rec := tuner.NewRecorder(schema, ann)
		clk := platform.NewSimClock(machine, 0, 0)
		ctx := raja.NewSimContext(clk, raja.Params{Policy: pol})
		ctx.Observe = rec.Observe
		for _, n := range []int{16, 128, 1024, 8192, 65536, 524288} {
			raja.ForAll(ctx, k, raja.NewRange(0, n), func(int) {})
		}
		if all == nil {
			all = rec.Frame()
		} else {
			all.Append(rec.Frame())
		}
	}
	set, err := core.Label(all, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Tune through the Kokkos frontend.
	ctx, _ := simCtx(raja.Params{})
	ctx.Hooks = tuner.NewTuner(schema, ann, raja.Params{}).UsePolicyModel(model)
	small := ParallelFor(ctx, fmt.Sprintf("kokkos_test::kk_%p", t), mix, RangePolicy{End: 32}, func(int) {})
	if small != machine.SeqTimeNS(mix, 32) {
		t.Errorf("RAJA-trained model did not tune Kokkos small dispatch to seq: %g", small)
	}
}
