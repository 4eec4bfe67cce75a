package cleverleaf

import (
	"fmt"
	"math"
	"testing"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/mpirt"
	"apollo/internal/raja"
	"apollo/internal/team"
	"apollo/internal/trace"
	"apollo/internal/tuner"
)

// TestTuningNeverChangesTheAnswer runs one deck on a real 4-worker team
// under every way a context chooses parameters — untuned, a tuner that
// explores whatever its budget affords with a tracer and a rank timer
// observing, and Seq, Omp and Omp chunk 7 as the static default — and
// requires every field of every AMR patch to be bit for bit the
// sequential run's: tuning picks how a loop runs, never what it computes.
func TestTuningNeverChangesTheAnswer(t *testing.T) {
	tm := team.New(4)
	defer tm.Close()
	omp := raja.Params{Policy: raja.OmpParallelForExec}
	tuned := func(ctx *raja.Context, ann *caliper.Annotations) {
		ctx.Hooks = tuner.NewTuner(features.TableI(), ann, omp).ExploreEvery(1)
		tr, timer := trace.New(0), mpirt.NewTimer(ann, 4)
		ctx.Observe = func(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, ns float64) {
			tr.Observe(k, iset, p, ns)
			timer.Observe(k, iset, p, ns)
		}
	}
	runs := []struct {
		name    string
		def     raja.Params
		install func(*raja.Context, *caliper.Annotations)
	}{
		{"seq", raja.Params{Policy: raja.SeqExec}, nil},
		{"untuned", Descriptor().DefaultParams, nil},
		{"tuner exploring, traced and timed", omp, tuned},
		{"omp", omp, nil},
		{"omp chunk 7", raja.Params{Policy: raja.OmpParallelForExec, Chunk: 7}, nil},
	}
	var want *Sim
	for _, r := range runs {
		ann := caliper.New()
		ctx := &raja.Context{Team: tm, Default: r.def}
		if r.install != nil {
			r.install(ctx, ann)
		}
		s, err := New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 32})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			s.Step()
		}
		if want == nil {
			want = s
		} else if d := stateDiff(want, s); d != "" {
			t.Errorf("%s differs from seq: %s", r.name, d)
		}
	}
}

// stateDiff names the first state that is not bit for bit equal.
func stateDiff(a, b *Sim) string {
	if a.Cycle() != b.Cycle() || math.Float64bits(a.Time()) != math.Float64bits(b.Time()) {
		return fmt.Sprintf("cycle %d time %g, want %d %g", b.Cycle(), b.Time(), a.Cycle(), a.Time())
	}
	ap, bp := a.Hierarchy().Patches(), b.Hierarchy().Patches()
	if len(ap) != len(bp) {
		return fmt.Sprintf("%d patches, want %d", len(bp), len(ap))
	}
	for i, p := range ap {
		if q := bp[i]; q.Level != p.Level || q.Box != p.Box {
			return fmt.Sprintf("patch %d is level %d %v, want level %d %v", i, q.Level, q.Box, p.Level, p.Box)
		}
		for _, name := range allFields {
			as, bs := p.Field(name).Data(), bp[i].Field(name).Data()
			for j := range as {
				if math.Float64bits(as[j]) != math.Float64bits(bs[j]) {
					return fmt.Sprintf("patch %d %s[%d] = %g, want %g", i, name, j, bs[j], as[j])
				}
			}
		}
	}
	return ""
}
