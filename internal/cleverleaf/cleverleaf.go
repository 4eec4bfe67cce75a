// Package cleverleaf is the CleverLeaf proxy: a 2D Eulerian
// shock-hydrodynamics code with block-structured adaptive mesh refinement
// (package amr standing in for SAMRAI), mirroring the application the
// paper tunes most successfully.
//
// The solver is package amrhydro's dimension-split first-order
// finite-volume scheme with Rusanov fluxes, which ARES shares; this
// package declares its launch sites, many small RAJA kernels in the
// CloverLeaf style: per-patch interior kernels (ideal_gas, viscosity,
// advection sweeps per conserved component, resets, field summary) and
// width-2 boundary-strip kernels applying the physical boundary
// conditions (update_halo_*). As in the paper, the majority of kernels
// iterate over all elements of the current AMR patch, so their iteration
// counts — and therefore their best execution policy — are set by the
// regridding algorithm at runtime.
package cleverleaf

import (
	"fmt"

	"apollo/internal/amr"
	"apollo/internal/amrhydro"
	"apollo/internal/app"
	"apollo/internal/hydro"
	"apollo/internal/instmix"
	"apollo/internal/raja"
)

// Field names on every patch.
const (
	FRho  = amrhydro.FRho
	FMu   = amrhydro.FMu
	FMv   = amrhydro.FMv
	FE    = amrhydro.FE
	FP    = amrhydro.FP
	FQ    = "viscosity"
	FWs   = amrhydro.FWs
	FRhoN = amrhydro.FRhoN
	FMuN  = amrhydro.FMuN
	FMvN  = amrhydro.FMvN
	FEN   = amrhydro.FEN
)

var allFields = []string{FRho, FMu, FMv, FE, FP, FQ, FWs, FRhoN, FMuN, FMvN, FEN}

// Kernel launch sites. As in RAJA, each source loop is a distinct site
// with a stable identity and a registered instruction mix (see package
// instmix for the Dyninst substitution).
var (
	kIdealGas = raja.NewKernel("cleverleaf::ideal_gas", instmix.NewMix().
			With(instmix.Movsd, 6).With(instmix.Mulpd, 4).With(instmix.Add, 3).
			With(instmix.Divsd, 1).With(instmix.Sqrtsd, 1).With(instmix.Maxsd, 2).
			With(instmix.Mov, 4).With(instmix.Cmp, 1).With(instmix.Jb, 1))
	kViscosity = raja.NewKernel("cleverleaf::viscosity", instmix.NewMix().
			With(instmix.Movsd, 8).With(instmix.Mulpd, 6).With(instmix.Add, 6).
			With(instmix.Sub, 2).With(instmix.Maxsd, 2).With(instmix.Mov, 5).
			With(instmix.Cmp, 2).With(instmix.Jb, 1))
	kAccelerate = raja.NewKernel("cleverleaf::accelerate", instmix.NewMix().
			With(instmix.Movsd, 6).With(instmix.Mulpd, 4).With(instmix.Add, 4).
			With(instmix.Mov, 4).With(instmix.Sub, 1))
	kCalcDt = raja.NewKernel("cleverleaf::calc_dt", instmix.NewMix().
		With(instmix.Movsd, 5).With(instmix.Divsd, 2).With(instmix.Sqrtsd, 1).
		With(instmix.Add, 2).With(instmix.Maxsd, 2).With(instmix.Mov, 3).
		With(instmix.Comisd, 1))
	kAdvecCellX = raja.NewKernel("cleverleaf::advec_cell_x", sweepMix())
	kAdvecMomX  = raja.NewKernel("cleverleaf::advec_mom_x", sweepMomMix())
	kAdvecEneX  = raja.NewKernel("cleverleaf::advec_energy_x", sweepMix())
	kAdvecCellY = raja.NewKernel("cleverleaf::advec_cell_y", sweepMix())
	kAdvecMomY  = raja.NewKernel("cleverleaf::advec_mom_y", sweepMomMix())
	kAdvecEneY  = raja.NewKernel("cleverleaf::advec_energy_y", sweepMix())
	kResetX     = raja.NewKernel("cleverleaf::reset_field_x", resetMix())
	kResetY     = raja.NewKernel("cleverleaf::reset_field_y", resetMix())
	kSummary    = raja.NewKernel("cleverleaf::field_summary", instmix.NewMix().
			With(instmix.Movsd, 4).With(instmix.Mulpd, 2).With(instmix.Add, 3).
			With(instmix.Mov, 2))

	haloKernels = buildHaloKernels()
)

func sweepMix() *instmix.Mix {
	return instmix.NewMix().
		With(instmix.Movsd, 14).With(instmix.Mulpd, 16).With(instmix.Add, 12).
		With(instmix.Sub, 6).With(instmix.Divsd, 3).With(instmix.Sqrtsd, 2).
		With(instmix.Maxsd, 3).With(instmix.Mov, 8).With(instmix.Cmp, 2).
		With(instmix.Jb, 1).With(instmix.Lea, 2)
}

func sweepMomMix() *instmix.Mix {
	return sweepMix().Clone().With(instmix.Mulpd, 4).With(instmix.Movsd, 4)
}

func resetMix() *instmix.Mix {
	return instmix.NewMix().
		With(instmix.Movsd, 8).With(instmix.Mov, 8).With(instmix.Lea, 2)
}

// buildHaloKernels declares one update_halo launch site per conserved
// field and direction.
func buildHaloKernels() []amrhydro.Halo {
	mix := func() *instmix.Mix {
		return instmix.NewMix().
			With(instmix.Movsd, 2).With(instmix.Mov, 4).With(instmix.Cmp, 2).
			With(instmix.Jb, 1).With(instmix.Lea, 1)
	}
	var out []amrhydro.Halo
	for _, f := range amrhydro.Conserved {
		for dir, dirName := range []string{"x", "y"} {
			out = append(out, amrhydro.Halo{
				Kernel: raja.NewKernel(fmt.Sprintf("cleverleaf::update_halo_%s_%s", f, dirName), mix()),
				Dir:    dir,
				Fields: []string{f},
			})
		}
	}
	return out
}

// Sim is a CleverLeaf run.
type Sim struct {
	solver *amrhydro.Solver
}

// Descriptor returns the harness descriptor for CleverLeaf.
func Descriptor() app.Descriptor {
	return app.Descriptor{
		Name:          "CleverLeaf",
		Short:         "C",
		Problems:      []string{"sod", "sedov", "triple_pt"},
		TrainSizes:    []int{32, 48, 64, 96},
		Steps:         12,
		DefaultParams: raja.Params{Policy: raja.OmpParallelForExec},
		New:           func(cfg app.Config) (app.Sim, error) { return New(cfg) },
	}
}

// New builds a CleverLeaf run for the configured deck and size.
func New(cfg app.Config) (*Sim, error) {
	deck, ok := hydro.DeckByName(cfg.Problem)
	if !ok {
		return nil, fmt.Errorf("cleverleaf: unknown problem %q", cfg.Problem)
	}
	solver, err := amrhydro.New("cleverleaf", cfg, deck, allFields, FQ)
	if err != nil {
		return nil, err
	}
	solver.Init(nil)
	return &Sim{solver: solver}, nil
}

// Hierarchy exposes the AMR hierarchy (for tests and visual summaries).
func (s *Sim) Hierarchy() *amr.Hierarchy { return s.solver.H }

// Cycle returns the number of completed steps.
func (s *Sim) Cycle() int { return s.solver.Cycle() }

// Time returns the simulated time.
func (s *Sim) Time() float64 { return s.solver.Time() }

// Step advances the simulation one timestep.
func (s *Sim) Step() {
	dt := s.solver.BeginStep(kIdealGas, kCalcDt)
	for l := 0; l < s.solver.H.NumLevels(); l++ {
		s.advanceLevel(l, dt)
	}
	s.solver.EndStep(dt)
	s.fieldSummary()
}

// advanceLevel performs the dimension-split update of one level.
func (s *Sim) advanceLevel(l int, dt float64) {
	sv := s.solver
	dx := 1.0 / float64(sv.H.LevelDomain(l).NX())

	sv.Exchange(l, haloKernels)
	for _, p := range sv.H.Level(l) {
		sv.Viscosity(p, kViscosity)
		sv.Accelerate(p, kAccelerate, dt)
	}
	sv.Exchange(l, haloKernels)
	for _, p := range sv.H.Level(l) {
		sv.Sweep(p, dt/dx, 0, kAdvecCellX, kAdvecMomX, kAdvecEneX)
		sv.Reset(p, kResetX, nil)
	}
	sv.Exchange(l, haloKernels)
	for _, p := range sv.H.Level(l) {
		sv.Sweep(p, dt/dx, 1, kAdvecCellY, kAdvecMomY, kAdvecEneY)
		sv.Reset(p, kResetY, nil)
	}
}

// fieldSummary computes per-cell total energy into the scratch field on
// the coarse level; the hierarchy-wide sums are used for conservation
// reporting and tests.
func (s *Sim) fieldSummary() {
	for _, p := range s.solver.H.Level(0) {
		e, ws := p.Field(FE), p.Field(FWs)
		s.solver.Launch(p, kSummary, amrhydro.InteriorSet(p), func(k int) {
			i, j := e.CellOf(k)
			ws.Set(i, j, e.At(i, j))
		})
	}
}

// TotalMass returns the level-0 mass (density sum scaled by cell area),
// a conserved quantity of the scheme up to boundary fluxes.
func (s *Sim) TotalMass() float64 { return s.solver.Total(FRho) }

// TotalEnergy returns the level-0 total energy.
func (s *Sim) TotalEnergy() float64 { return s.solver.Total(FE) }

// Kernels lists the package's kernel launch sites (for reporting).
func Kernels() []*raja.Kernel {
	out := []*raja.Kernel{
		kIdealGas, kViscosity, kAccelerate, kCalcDt,
		kAdvecCellX, kAdvecMomX, kAdvecEneX,
		kAdvecCellY, kAdvecMomY, kAdvecEneY,
		kResetX, kResetY, kSummary,
	}
	for _, hk := range haloKernels {
		out = append(out, hk.Kernel)
	}
	return out
}
