package cleverleaf

import (
	"math"
	"testing"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/hydro"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/team"
	"apollo/internal/tuner"
)

func newSim(t *testing.T, problem string, size int) (*Sim, *raja.Context) {
	t.Helper()
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	s, err := New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: problem, Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

func TestNewValidates(t *testing.T) {
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{})
	if _, err := New(app.Config{Ctx: ctx, Problem: "nope", Size: 32}); err == nil {
		t.Error("unknown problem accepted")
	}
	if _, err := New(app.Config{Ctx: ctx, Problem: "sedov", Size: 4}); err == nil {
		t.Error("tiny size accepted")
	}
}

func TestSedovRefinesCenter(t *testing.T) {
	s, _ := newSim(t, "sedov", 32)
	if len(s.Hierarchy().Level(1)) == 0 {
		t.Fatal("Sedov initial condition produced no refinement")
	}
	// The blast sits at the domain center; some fine patch must cover it.
	fineDomain := s.Hierarchy().LevelDomain(1)
	ci, cj := fineDomain.NX()/2, fineDomain.NY()/2
	found := false
	for _, p := range s.Hierarchy().Level(1) {
		if p.Box.Grow(8).Contains(ci, cj) {
			found = true
		}
	}
	if !found {
		t.Error("no fine patch near the blast center")
	}
}

func TestStepAdvancesAndStaysFinite(t *testing.T) {
	s, _ := newSim(t, "sedov", 32)
	for i := 0; i < 6; i++ {
		s.Step()
	}
	if s.Cycle() != 6 {
		t.Errorf("Cycle = %d", s.Cycle())
	}
	if s.Time() <= 0 {
		t.Error("time did not advance")
	}
	for _, p := range s.Hierarchy().Patches() {
		for _, f := range []string{FRho, FE} {
			lo, hi := p.Field(f).MinMaxInterior()
			if math.IsNaN(lo) || math.IsInf(hi, 0) {
				t.Fatalf("field %s went non-finite on patch %d", f, p.ID)
			}
			if f == FRho && lo <= 0 {
				t.Fatalf("density went non-positive: %g", lo)
			}
		}
	}
}

func TestMassApproximatelyConserved(t *testing.T) {
	s, _ := newSim(t, "sedov", 32)
	m0 := s.TotalMass()
	for i := 0; i < 8; i++ {
		s.Step()
	}
	m1 := s.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 0.02 {
		t.Errorf("mass drifted %.2f%% over 8 steps", rel*100)
	}
}

func TestShockExpandsRefinement(t *testing.T) {
	s, _ := newSim(t, "sedov", 48)
	var early int
	for _, p := range s.Hierarchy().Level(1) {
		early += p.Box.Count()
	}
	for i := 0; i < 30; i++ {
		s.Step()
	}
	var late int
	for _, p := range s.Hierarchy().Level(1) {
		late += p.Box.Count()
	}
	if late <= early {
		t.Errorf("refined region did not grow with the shock: %d -> %d", early, late)
	}
}

func TestKernelLaunchesRecordPatchFeatures(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	rec := tuner.NewRecorder(schema, ann)
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	ctx.Observe = rec.Observe
	s, err := New(app.Config{Ctx: ctx, Ann: ann, Problem: "sod", Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	frame := rec.Frame()
	if frame.Len() == 0 {
		t.Fatal("no samples recorded")
	}
	// Samples must span multiple patch IDs and iteration counts, and
	// include the tiny boundary-strip launches.
	patches := map[float64]bool{}
	minN, maxN := math.Inf(1), 0.0
	for r := 0; r < frame.Len(); r++ {
		patches[frame.At(r, features.PatchID)] = true
		n := frame.At(r, features.NumIndices)
		minN = math.Min(minN, n)
		maxN = math.Max(maxN, n)
	}
	if len(patches) < 2 {
		t.Errorf("samples cover %d patches, want several", len(patches))
	}
	if minN >= 256 {
		t.Errorf("no small boundary-strip launches recorded (min n = %g)", minN)
	}
	if maxN < 900 {
		t.Errorf("no full-patch launches recorded (max n = %g)", maxN)
	}
	if got := frame.At(0, features.ProblemName); got != caliper.Encode("sod") {
		t.Error("problem_name annotation missing from samples")
	}
}

func TestDifferentProblemsDifferentDynamics(t *testing.T) {
	sedov, _ := newSim(t, "sedov", 32)
	sod, _ := newSim(t, "sod", 32)
	for i := 0; i < 5; i++ {
		sedov.Step()
		sod.Step()
	}
	// Sedov refines a disc around the center, Sod refines a stripe —
	// the patch populations must differ.
	if len(sedov.Hierarchy().Level(1)) == len(sod.Hierarchy().Level(1)) {
		sameBoxes := true
		for i, p := range sedov.Hierarchy().Level(1) {
			if p.Box != sod.Hierarchy().Level(1)[i].Box {
				sameBoxes = false
				break
			}
		}
		if sameBoxes {
			t.Error("sedov and sod produced identical patch sets")
		}
	}
}

func TestRanksAssigned(t *testing.T) {
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{})
	s, err := New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: "sedov", Size: 32, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	ranks := map[int]bool{}
	for _, p := range s.Hierarchy().Patches() {
		if p.Rank < 0 || p.Rank >= 4 {
			t.Fatalf("patch rank %d outside [0,4)", p.Rank)
		}
		ranks[p.Rank] = true
	}
	if len(ranks) < 2 {
		t.Error("patches not spread across ranks")
	}
}

func TestDescriptor(t *testing.T) {
	d := Descriptor()
	if d.Name != "CleverLeaf" || d.Short != "C" || len(d.Problems) != 3 {
		t.Errorf("descriptor wrong: %+v", d)
	}
	if d.DefaultParams.Policy != raja.OmpParallelForExec {
		t.Error("CleverLeaf default should be OpenMP everywhere")
	}
}

func TestKernelsListed(t *testing.T) {
	ks := Kernels()
	if len(ks) < 20 {
		t.Errorf("only %d kernel sites registered", len(ks))
	}
	seen := map[string]bool{}
	for _, k := range ks {
		if seen[k.Name] {
			t.Errorf("duplicate kernel name %s", k.Name)
		}
		seen[k.Name] = true
		if k.Mix.FuncSize() <= 0 {
			t.Errorf("kernel %s has empty instruction mix", k.Name)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Two identical runs must produce identical feature streams — the
	// property training relies on to match vectors across variant runs.
	run := func() float64 {
		s, _ := newSim(t, "triple_pt", 32)
		for i := 0; i < 4; i++ {
			s.Step()
		}
		return s.TotalEnergy()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("runs diverged: %g vs %g", a, b)
	}
}

func TestRealTeamParallelExecutionMatchesSequential(t *testing.T) {
	// Run the same problem on the wall-clock path with a real goroutine
	// team under the parallel policy, and sequentially; the physics
	// must agree exactly (kernels are race-free by construction), which
	// the race detector verifies when tests run with -race.
	run := func(ctx *raja.Context) float64 {
		s, err := New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: "sedov", Size: 32})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s.Step()
		}
		return s.TotalEnergy()
	}
	tm := team.New(4)
	defer tm.Close()
	par := run(&raja.Context{Team: tm, Default: raja.Params{Policy: raja.OmpParallelForExec, Chunk: 8}})
	seq := run(&raja.Context{Default: raja.Params{Policy: raja.SeqExec}})
	if par != seq {
		t.Errorf("parallel execution changed the physics: %g vs %g", par, seq)
	}
}

func TestSodMatchesExactRiemannSolution(t *testing.T) {
	// Validate the finite-volume scheme against the exact Riemann
	// solution of Sod's problem: run until the waves are well developed
	// and compare the midline density profile (L1 norm).
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	s, err := New(app.Config{Ctx: ctx, Ann: caliper.New(), Problem: "sod", Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	for s.Time() < 0.1 {
		s.Step()
		if s.Cycle() > 500 {
			t.Fatal("timestep collapsed; too many cycles")
		}
	}
	tFinal := s.Time()

	left := hydro.RiemannState{Rho: 1, U: 0, P: 1}
	right := hydro.RiemannState{Rho: 0.125, U: 0, P: 0.1}
	domain := s.Hierarchy().LevelDomain(0)
	n := domain.NX()
	j := domain.NY() / 2
	var l1 float64
	count := 0
	for i := 0; i < n; i++ {
		var got float64
		found := false
		for _, p := range s.Hierarchy().Level(0) {
			if p.Box.Contains(i, j) {
				got = p.Field(FRho).At(i, j)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no patch covers cell (%d,%d)", i, j)
		}
		x := (float64(i) + 0.5) / float64(n)
		exact := hydro.SampleRiemann(left, right, (x-0.5)/tFinal)
		l1 += abs(got - exact.Rho)
		count++
	}
	l1 /= float64(count)
	if l1 > 0.08 {
		t.Errorf("Sod L1 density error %.4f exceeds 0.08 at t=%.3f", l1, tFinal)
	}
	t.Logf("Sod validation: L1 density error %.4f at t=%.3f over %d cells", l1, tFinal, count)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
