package ares

import (
	"math"
	"testing"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/tuner"
)

func newSim(t *testing.T, problem string) *Sim {
	t.Helper()
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	s, err := New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: problem, Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidates(t *testing.T) {
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{})
	if _, err := New(app.Config{Ctx: ctx, Problem: "sod", Size: 32}); err == nil {
		t.Error("ARES should not accept the Sod deck")
	}
	if _, err := New(app.Config{Ctx: ctx, Problem: "jet", Size: 4}); err == nil {
		t.Error("tiny size accepted")
	}
}

func TestMaterialCounts(t *testing.T) {
	cases := map[string]int{"sedov": 2, "jet": 3, "hotspot": 4}
	for problem, want := range cases {
		s := newSim(t, problem)
		if s.NumMaterials() != want {
			t.Errorf("%s: materials = %d, want %d", problem, s.NumMaterials(), want)
		}
	}
}

func TestVolumeFractionsPartitionUnity(t *testing.T) {
	s := newSim(t, "hotspot")
	for i := 0; i < 4; i++ {
		s.Step()
	}
	for _, p := range s.Hierarchy().Patches() {
		n := p.Box.Count()
		for k := 0; k < n; k += 7 {
			i, j := p.Field(FRho).CellOf(k)
			var sum float64
			for m := 0; m < s.NumMaterials(); m++ {
				v := p.Field("vof_"+string(rune('0'+m))).At(i, j)
				if v < -1e-9 || v > 1+1e-9 {
					t.Fatalf("vof out of range: %g", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("vof sum = %g at patch %d cell (%d,%d)", sum, p.ID, i, j)
			}
		}
	}
}

func TestMaterialsMixOverTime(t *testing.T) {
	s := newSim(t, "jet")
	initial := s.MixedCellCount()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	final := s.MixedCellCount()
	if final <= initial {
		t.Errorf("mixed cells did not grow: %d -> %d", initial, final)
	}
}

func TestStepStaysFinite(t *testing.T) {
	for _, problem := range []string{"sedov", "jet", "hotspot"} {
		s := newSim(t, problem)
		for i := 0; i < 6; i++ {
			s.Step()
		}
		if s.Time() <= 0 || s.Cycle() != 6 {
			t.Errorf("%s: time/cycle wrong", problem)
		}
		for _, p := range s.Hierarchy().Patches() {
			lo, hi := p.Field(FRho).MinMaxInterior()
			if math.IsNaN(lo) || math.IsInf(hi, 0) || lo <= 0 {
				t.Fatalf("%s: density invalid on patch %d: [%g,%g]", problem, p.ID, lo, hi)
			}
		}
	}
}

func TestExtraPhysicsOnlyForJetAndHotspot(t *testing.T) {
	rec := func(problem string) map[string]bool {
		schema := features.TableI()
		ann := caliper.New()
		r := tuner.NewRecorder(schema, ann)
		clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
		ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
		ctx.Observe = r.Observe
		s, err := New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: 32})
		if err != nil {
			t.Fatal(err)
		}
		s.Step()
		seen := map[string]bool{}
		frame := r.Frame()
		for i := 0; i < frame.Len(); i++ {
			if frame.At(i, features.Func) == caliper.Encode(kRadDiffusion.Name) {
				seen["rad"] = true
			}
		}
		return seen
	}
	if rec("sedov")["rad"] {
		t.Error("sedov deck ran the radiation package")
	}
	if !rec("hotspot")["rad"] {
		t.Error("hotspot deck did not run the radiation package")
	}
}

func TestUnportedPhaseIsNotRecorded(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	rec := tuner.NewRecorder(schema, ann)
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	ctx.Observe = rec.Observe
	s, err := New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	before := clk.NowNS()
	s.Step()
	if clk.NowNS() <= before {
		t.Fatal("clock did not advance")
	}
	frame := rec.Frame()
	unportedCode := caliper.Encode(kUnported.Name)
	for i := 0; i < frame.Len(); i++ {
		if frame.At(i, features.Func) == unportedCode {
			t.Fatal("unported physics leaked into Apollo's training samples")
		}
	}
}

func TestDefaultAssignmentCoversAllKernels(t *testing.T) {
	assign := DefaultAssignment()
	for _, k := range Kernels() {
		if _, ok := assign[k.Name]; !ok {
			t.Errorf("kernel %s has no developer assignment", k.Name)
		}
	}
	// Material kernels must be serial, interior kernels parallel, per
	// the paper's description of the hand-assigned defaults.
	if assign[kMixRelax.Name].Policy != raja.SeqExec {
		t.Error("mix kernels should default to serial")
	}
	if assign[kRemapRhoX.Name].Policy != raja.OmpParallelForExec {
		t.Error("remap kernels should default to OpenMP")
	}
}

func TestStaticHooks(t *testing.T) {
	h := &StaticHooks{
		Assignment: map[string]raja.Params{"a": {Policy: raja.SeqExec}},
		Fallback:   raja.Params{Policy: raja.OmpParallelForExec},
	}
	ka := raja.NewKernel("a", nil)
	kb := raja.NewKernel("b", nil)
	if p, _ := h.Begin(ka, raja.NewRange(0, 1)); p.Policy != raja.SeqExec {
		t.Error("assignment not honored")
	}
	if p, _ := h.Begin(kb, raja.NewRange(0, 1)); p.Policy != raja.OmpParallelForExec {
		t.Error("fallback not honored")
	}
}

func TestNumMaterialsAnnotated(t *testing.T) {
	ann := caliper.New()
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{})
	if _, err := New(app.Config{Ctx: ctx, Ann: ann, Problem: "jet", Size: 32}); err != nil {
		t.Fatal(err)
	}
	if got := ann.GetOr("num_materials", -1); got != 3 {
		t.Errorf("num_materials annotation = %g, want 3", got)
	}
}

func TestDescriptor(t *testing.T) {
	d := Descriptor()
	if d.Name != "ARES" || d.Short != "A" || len(d.Problems) != 3 {
		t.Errorf("descriptor wrong: %+v", d)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (float64, int) {
		s := newSim(t, "hotspot")
		for i := 0; i < 4; i++ {
			s.Step()
		}
		return s.Time(), s.MixedCellCount()
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Errorf("runs diverged: (%g,%d) vs (%g,%d)", t1, m1, t2, m2)
	}
}
