package lulesh

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

func newSim(t *testing.T, size int) *Sim {
	t.Helper()
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	s, err := New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: "sedov", Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidates(t *testing.T) {
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{})
	if _, err := New(app.Config{Ctx: ctx, Problem: "sod", Size: 16}); err == nil {
		t.Error("LULESH should only accept sedov")
	}
	if _, err := New(app.Config{Ctx: ctx, Problem: "sedov", Size: 2}); err == nil {
		t.Error("tiny size accepted")
	}
}

func TestRegionsPartitionElements(t *testing.T) {
	s := newSim(t, 12)
	sizes := s.RegionSizes()
	if len(sizes) != NumRegions {
		t.Fatalf("got %d regions", len(sizes))
	}
	total := 0
	for _, n := range sizes {
		if n <= 0 {
			t.Error("empty region")
		}
		total += n
	}
	if total != 12*12*12 {
		t.Errorf("regions cover %d elements, want %d", total, 12*12*12)
	}
	// Region sizes must be skewed (first much larger than last).
	if sizes[0] <= sizes[NumRegions-1] {
		t.Error("region sizes not skewed")
	}
}

func TestBlastPropagates(t *testing.T) {
	s := newSim(t, 10)
	p0 := s.MaxPressure()
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if s.Time() <= 0 || s.Cycle() != 10 {
		t.Fatal("did not advance")
	}
	// Pressure must have appeared (EOS ran) and stayed finite.
	if s.MaxPressure() <= p0 {
		t.Error("blast produced no pressure")
	}
	for i, v := range s.p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("pressure[%d] invalid: %g", i, v)
		}
	}
	// Velocity field must be non-trivial away from the origin.
	moving := 0
	for _, u := range s.ux {
		if math.Abs(u) > 1e-12 {
			moving++
		}
	}
	if moving == 0 {
		t.Error("no nodes moving after 10 steps")
	}
}

func TestSymmetryBoundary(t *testing.T) {
	s := newSim(t, 8)
	for i := 0; i < 5; i++ {
		s.Step()
	}
	// Normal velocity on the symmetry planes must remain zero.
	np := s.np
	for a := 0; a < np; a++ {
		for b := 0; b < np; b++ {
			if v := s.ux[s.node(0, a, b)]; v != 0 {
				t.Fatalf("ux on x=0 face = %g", v)
			}
			if v := s.uy[s.node(a, 0, b)]; v != 0 {
				t.Fatalf("uy on y=0 face = %g", v)
			}
			if v := s.uz[s.node(a, b, 0)]; v != 0 {
				t.Fatalf("uz on z=0 face = %g", v)
			}
		}
	}
}

func TestKernelCategoriesRecorded(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	rec := tuner.NewRecorder(schema, ann)
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	ctx.Observe = rec.Observe
	s, err := New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	frame := rec.Frame()
	ne := float64(10 * 10 * 10)
	sawElems, sawRegion11, sawList := false, false, false
	for i := 0; i < frame.Len(); i++ {
		n := frame.At(i, features.NumIndices)
		it := frame.At(i, features.IndexType)
		if n == ne {
			sawElems = true
		}
		if n == NumRegions {
			sawRegion11 = true
		}
		if it == float64(raja.ListIndex) {
			sawList = true
		}
	}
	if !sawElems {
		t.Error("no full-element kernel recorded")
	}
	if !sawRegion11 {
		t.Error("no 11-iteration region kernel recorded (paper's second category)")
	}
	if !sawList {
		t.Error("no ListSegment region kernel recorded")
	}
}

func TestEnergyBounded(t *testing.T) {
	s := newSim(t, 8)
	e0 := s.TotalEnergy()
	for i := 0; i < 15; i++ {
		s.Step()
	}
	e1 := s.TotalEnergy()
	if e1 <= 0 || math.IsNaN(e1) {
		t.Fatalf("total energy invalid: %g", e1)
	}
	// Internal energy only decreases (converted to kinetic + clamped);
	// it must not blow up.
	if e1 > e0*1.5 {
		t.Errorf("internal energy grew unphysically: %g -> %g", e0, e1)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		s := newSim(t, 8)
		for i := 0; i < 5; i++ {
			s.Step()
		}
		return s.TotalEnergy()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs diverged: %g vs %g", a, b)
	}
}

func TestDescriptor(t *testing.T) {
	d := Descriptor()
	if d.Name != "LULESH" || d.Short != "L" {
		t.Errorf("descriptor wrong: %+v", d)
	}
	if len(d.Problems) != 1 || d.Problems[0] != "sedov" {
		t.Error("LULESH runs only sedov")
	}
}

func TestKernelsHaveDistinctNamesAndMixes(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kernels() {
		if seen[k.Name] {
			t.Errorf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
		if k.Mix.FuncSize() <= 0 {
			t.Errorf("kernel %s has empty mix", k.Name)
		}
	}
	if len(seen) < 15 {
		t.Errorf("only %d kernel sites", len(seen))
	}
}
