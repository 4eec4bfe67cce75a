// Package ares is the ARES proxy: an ALE-style multi-physics
// hydrodynamics application with adaptive mesh refinement and a mixed
// material capability, standing in for the production code the paper
// tunes.
//
// The proxy reproduces the workload characteristics the paper attributes
// to ARES:
//
//   - a Lagrange-plus-remap update split over many kernels;
//   - a dynamic mixed-material capability: per-material volume fractions
//     advect with the flow, and the per-material mixed-cell lists (RAJA
//     ListSegments) grow as materials mix together during the run;
//   - additional physics packages (radiation diffusion and conduction)
//     enabled by the Jet and Hotspot decks, changing the kernel mix per
//     input problem;
//   - developer-assigned static execution policies per kernel (the
//     paper's ARES default is hand-chosen serial/OpenMP per kernel, not
//     OpenMP everywhere); and
//   - a large unported remainder: only one physics package of the real
//     code uses RAJA, so end-to-end speedups are diluted (paper Fig. 11
//     reports 1.15x). The proxy models the unported remainder as a fixed
//     per-step cost outside Apollo's control.
//
// The Lagrange and remap phases run on package amrhydro's block-AMR hydro
// core, which CleverLeaf shares; this package declares their kernels and
// adds the material, extra-physics and unported phases.
package ares

import (
	"fmt"
	"math"

	"apollo/internal/amr"
	"apollo/internal/amrhydro"
	"apollo/internal/app"
	"apollo/internal/hydro"
	"apollo/internal/instmix"
	"apollo/internal/mesh"
	"apollo/internal/raja"
)

// MaxMaterials is the proxy's material capacity.
const MaxMaterials = 4

// Field names.
const (
	FRho  = amrhydro.FRho
	FMu   = amrhydro.FMu
	FMv   = amrhydro.FMv
	FE    = amrhydro.FE
	FP    = amrhydro.FP
	FQ    = "artificial_q"
	FWs   = amrhydro.FWs
	FRhoN = amrhydro.FRhoN
	FMuN  = amrhydro.FMuN
	FMvN  = amrhydro.FMvN
	FEN   = amrhydro.FEN
)

// vfField names the volume-fraction field of material m.
func vfField(m int) string { return fmt.Sprintf("vof_%d", m) }

func allFields() []string {
	fs := []string{FRho, FMu, FMv, FE, FP, FQ, FWs, FRhoN, FMuN, FMvN, FEN}
	for m := 0; m < MaxMaterials; m++ {
		fs = append(fs, vfField(m), vfField(m)+"_new")
	}
	return fs
}

// Kernel launch sites.
var (
	kEOS = raja.NewKernel("ares::eos", instmix.NewMix().
		With(instmix.Movsd, 6).With(instmix.Mulpd, 4).With(instmix.Add, 3).
		With(instmix.Divsd, 1).With(instmix.Sqrtsd, 1).With(instmix.Mov, 4).
		With(instmix.Maxsd, 2).With(instmix.Cmp, 1))
	kCalcDt = raja.NewKernel("ares::calc_dt", instmix.NewMix().
		With(instmix.Movsd, 5).With(instmix.Divsd, 2).With(instmix.Sqrtsd, 1).
		With(instmix.Add, 2).With(instmix.Maxsd, 2).With(instmix.Mov, 3))
	kLagrangeQ = raja.NewKernel("ares::lagrange_q", instmix.NewMix().
			With(instmix.Movsd, 8).With(instmix.Mulpd, 6).With(instmix.Add, 5).
			With(instmix.Sub, 3).With(instmix.Maxsd, 2).With(instmix.Cmp, 2).
			With(instmix.Mov, 5).With(instmix.Jb, 1))
	kLagrangeAccel = raja.NewKernel("ares::lagrange_accel", instmix.NewMix().
			With(instmix.Movsd, 6).With(instmix.Mulpd, 4).With(instmix.Add, 4).
			With(instmix.Mov, 4).With(instmix.Sub, 1))
	kRemapRhoX = raja.NewKernel("ares::remap_rho_x", remapMix())
	kRemapMomX = raja.NewKernel("ares::remap_mom_x", remapMix().With(instmix.Mulpd, 4))
	kRemapEneX = raja.NewKernel("ares::remap_energy_x", remapMix())
	kRemapRhoY = raja.NewKernel("ares::remap_rho_y", remapMix())
	kRemapMomY = raja.NewKernel("ares::remap_mom_y", remapMix().With(instmix.Mulpd, 4))
	kRemapEneY = raja.NewKernel("ares::remap_energy_y", remapMix())
	kResetX    = raja.NewKernel("ares::remap_reset_x", resetMix())
	kResetY    = raja.NewKernel("ares::remap_reset_y", resetMix())
	kAdvecVofX = raja.NewKernel("ares::advec_vof_x", vofMix())
	kAdvecVofY = raja.NewKernel("ares::advec_vof_y", vofMix())
	kVofNorm   = raja.NewKernel("ares::vof_normalize", instmix.NewMix().
			With(instmix.Movsd, 5).With(instmix.Add, 4).With(instmix.Divsd, 1).
			With(instmix.Mov, 3).With(instmix.Cmp, 1).With(instmix.Jb, 1))
	kMixRelax = raja.NewKernel("ares::mix_pressure_relax", instmix.NewMix().
			With(instmix.Movsd, 7).With(instmix.Mulpd, 5).With(instmix.Add, 4).
			With(instmix.Divsd, 2).With(instmix.Mov, 4).With(instmix.Cmp, 2).
			With(instmix.Jb, 1))
	kMatEOS = raja.NewKernel("ares::mat_eos", instmix.NewMix().
		With(instmix.Movsd, 6).With(instmix.Mulpd, 4).With(instmix.Add, 3).
		With(instmix.Divsd, 1).With(instmix.Sqrtsd, 1).With(instmix.Mov, 3))
	kMatUpdate = raja.NewKernel("ares::mat_update", instmix.NewMix().
			With(instmix.Movsd, 3).With(instmix.Add, 2).With(instmix.Mov, 3).
			With(instmix.Cmp, 1))
	kRadDiffusion = raja.NewKernel("ares::rad_diffusion", instmix.NewMix().
			With(instmix.Movsd, 10).With(instmix.Mulpd, 6).With(instmix.Add, 8).
			With(instmix.Sub, 2).With(instmix.Mov, 5))
	kConduction = raja.NewKernel("ares::conduction", instmix.NewMix().
			With(instmix.Movsd, 10).With(instmix.Mulpd, 5).With(instmix.Add, 7).
			With(instmix.Sub, 2).With(instmix.Mov, 5))
	kHaloX = raja.NewKernel("ares::update_halo_x", haloMix())
	kHaloY = raja.NewKernel("ares::update_halo_y", haloMix())

	// kUnported models the bulk of the production code that has not
	// been ported to RAJA; Apollo cannot tune it.
	kUnported = raja.NewKernel("ares::unported_physics", instmix.NewMix().
			With(instmix.Movsd, 12).With(instmix.Mulpd, 8).With(instmix.Add, 8).
			With(instmix.Divsd, 2).With(instmix.Mov, 8))

	// halos reflects every conserved field, one kernel per direction.
	halos = []amrhydro.Halo{
		{Kernel: kHaloX, Dir: 0, Fields: amrhydro.Conserved},
		{Kernel: kHaloY, Dir: 1, Fields: amrhydro.Conserved},
	}
)

func remapMix() *instmix.Mix {
	return instmix.NewMix().
		With(instmix.Movsd, 14).With(instmix.Mulpd, 16).With(instmix.Add, 12).
		With(instmix.Sub, 6).With(instmix.Divsd, 3).With(instmix.Sqrtsd, 2).
		With(instmix.Maxsd, 3).With(instmix.Mov, 8).With(instmix.Cmp, 2).
		With(instmix.Lea, 2)
}

func resetMix() *instmix.Mix {
	return instmix.NewMix().
		With(instmix.Movsd, 8).With(instmix.Mov, 8).With(instmix.Lea, 2)
}

func vofMix() *instmix.Mix {
	return instmix.NewMix().
		With(instmix.Movsd, 8).With(instmix.Mulpd, 4).With(instmix.Add, 4).
		With(instmix.Sub, 2).With(instmix.Cmp, 2).With(instmix.Jb, 2).
		With(instmix.Mov, 5)
}

func haloMix() *instmix.Mix {
	return instmix.NewMix().
		With(instmix.Movsd, 2).With(instmix.Mov, 4).With(instmix.Cmp, 2).
		With(instmix.Jb, 1).With(instmix.Lea, 1)
}

// DefaultAssignment returns the developer-chosen static policy per kernel
// — the configuration the paper's ARES speedups are measured against.
// Large interior kernels were assigned OpenMP; list-driven material
// kernels, tiny per-material loops, and halo strips were assigned serial.
func DefaultAssignment() map[string]raja.Params {
	omp := raja.Params{Policy: raja.OmpParallelForExec}
	seq := raja.Params{Policy: raja.SeqExec}
	return map[string]raja.Params{
		kEOS.Name: omp, kCalcDt.Name: omp,
		kLagrangeQ.Name: omp, kLagrangeAccel.Name: omp,
		kRemapRhoX.Name: omp, kRemapMomX.Name: omp, kRemapEneX.Name: omp,
		kRemapRhoY.Name: omp, kRemapMomY.Name: omp, kRemapEneY.Name: omp,
		kResetX.Name: omp, kResetY.Name: omp,
		kAdvecVofX.Name: omp, kAdvecVofY.Name: omp, kVofNorm.Name: omp,
		kMixRelax.Name: seq, kMatEOS.Name: seq, kMatUpdate.Name: seq,
		kRadDiffusion.Name: omp, kConduction.Name: omp,
		kHaloX.Name: seq, kHaloY.Name: seq,
	}
}

// StaticHooks applies a fixed per-kernel parameter assignment, standing in
// for the hand-tuned policy selections of the production code.
type StaticHooks struct {
	Assignment map[string]raja.Params
	Fallback   raja.Params
}

// Begin returns the kernel's assigned parameters.
func (h *StaticHooks) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	if p, ok := h.Assignment[k.Name]; ok {
		return p, true
	}
	return h.Fallback, true
}

// End is a no-op.
func (h *StaticHooks) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
}

// Sim is an ARES run.
type Sim struct {
	solver *amrhydro.Solver

	numMat    int
	extraPhys bool // radiation + conduction packages (jet, hotspot)

	// unportedCtx executes the unported remainder outside Apollo's
	// hooks with a fixed policy.
	unportedCtx *raja.Context
}

// Descriptor returns the harness descriptor for ARES.
func Descriptor() app.Descriptor {
	return app.Descriptor{
		Name:          "ARES",
		Short:         "A",
		Problems:      []string{"sedov", "jet", "hotspot"},
		TrainSizes:    []int{32, 48, 64},
		Steps:         10,
		DefaultParams: raja.Params{Policy: raja.OmpParallelForExec},
		NewDefaultHooks: func() raja.Hooks {
			return &StaticHooks{
				Assignment: DefaultAssignment(),
				Fallback:   raja.Params{Policy: raja.OmpParallelForExec},
			}
		},
		New: func(cfg app.Config) (app.Sim, error) { return New(cfg) },
	}
}

// New builds an ARES run.
func New(cfg app.Config) (*Sim, error) {
	var deck hydro.Deck
	switch cfg.Problem {
	case "sedov":
		deck = hydro.SedovMix() // full mixed-material Sedov, as in the paper
	case "jet":
		deck = hydro.Jet()
	case "hotspot":
		deck = hydro.Hotspot()
	default:
		return nil, fmt.Errorf("ares: unknown problem %q", cfg.Problem)
	}
	solver, err := amrhydro.New("ares", cfg, deck, allFields(), FQ)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		solver:    solver,
		numMat:    deck.NumMaterials,
		extraPhys: cfg.Problem == "jet" || cfg.Problem == "hotspot",
	}
	s.unportedCtx = &raja.Context{
		Team:    cfg.Ctx.Team,
		Sim:     cfg.Ctx.Sim,
		Default: raja.Params{Policy: raja.OmpParallelForExec},
	}
	solver.Cfg.Ann.Set("num_materials", float64(s.numMat))
	solver.Init(func(p *amr.Patch, i, j, mat int) {
		for m := 0; m < MaxMaterials; m++ {
			vf := 0.0
			if m == mat {
				vf = 1.0
			}
			p.Field(vfField(m)).Set(i, j, vf)
		}
	})
	return s, nil
}

// Hierarchy exposes the AMR hierarchy.
func (s *Sim) Hierarchy() *amr.Hierarchy { return s.solver.H }

// Cycle returns completed steps.
func (s *Sim) Cycle() int { return s.solver.Cycle() }

// Time returns simulated time.
func (s *Sim) Time() float64 { return s.solver.Time() }

// NumMaterials returns the deck's material count.
func (s *Sim) NumMaterials() int { return s.numMat }

// Step advances one timestep: Lagrange phase, remap phase, material
// phase, optional extra physics, and the unported remainder.
func (s *Sim) Step() {
	dt := s.solver.BeginStep(kEOS, kCalcDt)
	for l := 0; l < s.solver.H.NumLevels(); l++ {
		s.lagrangePhase(l, dt)
		s.remapPhase(l, dt)
		s.materialPhase(l, dt)
		if s.extraPhys {
			s.extraPhysics(l, dt)
		}
	}
	s.solver.EndStep(dt)
	s.unportedPhase()
}

// lagrangePhase computes artificial viscosity and applies it as a
// momentum damping source.
func (s *Sim) lagrangePhase(l int, dt float64) {
	s.solver.Exchange(l, halos)
	for _, p := range s.solver.H.Level(l) {
		s.solver.Viscosity(p, kLagrangeQ)
		s.solver.Accelerate(p, kLagrangeAccel, dt)
	}
}

// remapPhase performs the dimension-split conservative update plus
// volume-fraction advection.
func (s *Sim) remapPhase(l int, dt float64) {
	dx := 1.0 / float64(s.solver.H.LevelDomain(l).NX())
	lambda := dt / dx

	s.solver.Exchange(l, halos)
	for _, p := range s.solver.H.Level(l) {
		s.solver.Sweep(p, lambda, 0, kRemapRhoX, kRemapMomX, kRemapEneX)
		s.advecVof(p, lambda, 0)
		s.reset(p, kResetX)
	}
	s.solver.Exchange(l, halos)
	for _, p := range s.solver.H.Level(l) {
		s.solver.Sweep(p, lambda, 1, kRemapRhoY, kRemapMomY, kRemapEneY)
		s.advecVof(p, lambda, 1)
		s.reset(p, kResetY)
	}
}

// advecVof advects every material's volume fraction with donor-cell
// upwinding on the cell velocity, writing the *_new vof fields.
func (s *Sim) advecVof(p *amr.Patch, lambda float64, dir int) {
	rho, mu, mv := p.Field(FRho), p.Field(FMu), p.Field(FMv)
	k := kAdvecVofX
	if dir == 1 {
		k = kAdvecVofY
	}
	vfs := make([]*mesh.Field, s.numMat)
	vfsN := make([]*mesh.Field, s.numMat)
	for m := 0; m < s.numMat; m++ {
		vfs[m] = p.Field(vfField(m))
		vfsN[m] = p.Field(vfField(m) + "_new")
	}
	s.solver.Launch(p, k, amrhydro.InteriorSet(p), func(kk int) {
		i, j := rho.CellOf(kk)
		r := math.Max(rho.At(i, j), hydro.RhoFloor)
		var vel float64
		if dir == 0 {
			vel = mu.At(i, j) / r
		} else {
			vel = mv.At(i, j) / r
		}
		for m := range vfs {
			var up float64
			if dir == 0 {
				if vel >= 0 {
					up = vfs[m].At(i, j) - vfs[m].At(i-1, j)
				} else {
					up = vfs[m].At(i+1, j) - vfs[m].At(i, j)
				}
			} else {
				if vel >= 0 {
					up = vfs[m].At(i, j) - vfs[m].At(i, j-1)
				} else {
					up = vfs[m].At(i, j+1) - vfs[m].At(i, j)
				}
			}
			nv := vfs[m].At(i, j) - lambda*vel*up
			vfsN[m].Set(i, j, math.Min(math.Max(nv, 0), 1))
		}
	})
}

// reset copies the *_new fields back, including volume fractions, and
// renormalizes the fractions to sum to one.
func (s *Sim) reset(p *amr.Patch, k *raja.Kernel) {
	vfs := make([]*mesh.Field, s.numMat)
	vfsN := make([]*mesh.Field, s.numMat)
	for m := 0; m < s.numMat; m++ {
		vfs[m] = p.Field(vfField(m))
		vfsN[m] = p.Field(vfField(m) + "_new")
	}
	s.solver.Reset(p, k, func(i, j int) {
		for m := range vfs {
			vfs[m].Set(i, j, vfsN[m].At(i, j))
		}
	})
	rho := p.Field(FRho)
	s.solver.Launch(p, kVofNorm, amrhydro.InteriorSet(p), func(kk int) {
		i, j := rho.CellOf(kk)
		var sum float64
		for m := range vfs {
			sum += vfs[m].At(i, j)
		}
		if sum > 1e-12 {
			for m := range vfs {
				vfs[m].Set(i, j, vfs[m].At(i, j)/sum)
			}
		}
	})
}

// materialPhase builds the per-material mixed-cell lists and runs the
// material kernels over them. The lists are RAJA ListSegments whose
// lengths change dynamically as materials mix — the paper's key ARES
// input dependence.
func (s *Sim) materialPhase(l int, dt float64) {
	for _, p := range s.solver.H.Level(l) {
		pr := p.Field(FP)
		for m := 0; m < s.numMat; m++ {
			vf := p.Field(vfField(m))
			mixed, dominant := s.materialLists(p, vf)
			if len(mixed) > 0 {
				iset := raja.NewList(mixed)
				s.solver.Launch(p, kMixRelax, iset, func(k int) {
					i, j := pr.CellOf(k)
					// Relax pressure toward the volume-weighted value.
					w := vf.At(i, j)
					pv := pr.At(i, j)
					pr.Set(i, j, pv*(1-0.05*w)+0.05*w*pv)
				})
			}
			if len(dominant) > 0 {
				iset := raja.NewList(dominant)
				s.solver.Launch(p, kMatEOS, iset, func(k int) {
					i, j := pr.CellOf(k)
					pr.Set(i, j, math.Max(pr.At(i, j), hydro.PFloor))
				})
			}
		}
		// A tiny kernel iterating over the materials themselves.
		counts := make([]float64, s.numMat)
		s.solver.Launch(p, kMatUpdate, raja.NewRange(0, s.numMat), func(m int) {
			vf := p.Field(vfField(m))
			counts[m] = vf.SumInterior()
		})
	}
}

// materialLists returns the flat interior indices of mixed cells
// (0 < vf < 1) and dominant cells (vf >= 0.5) of one material.
func (s *Sim) materialLists(p *amr.Patch, vf *mesh.Field) (mixed, dominant []int) {
	n := p.Box.Count()
	for k := 0; k < n; k++ {
		i, j := vf.CellOf(k)
		v := vf.At(i, j)
		if v > 0.01 && v < 0.99 {
			mixed = append(mixed, k)
		}
		if v >= 0.5 {
			dominant = append(dominant, k)
		}
	}
	return
}

// MixedCellCount returns the current number of mixed cells across the
// hierarchy — a measurable proxy for how far materials have mixed.
func (s *Sim) MixedCellCount() int {
	total := 0
	for _, p := range s.solver.H.Patches() {
		for m := 0; m < s.numMat; m++ {
			mixed, _ := s.materialLists(p, p.Field(vfField(m)))
			total += len(mixed)
		}
	}
	return total
}

// extraPhysics runs the radiation-diffusion and conduction packages the
// Jet and Hotspot decks enable: explicit 5-point diffusion of energy.
func (s *Sim) extraPhysics(l int, dt float64) {
	s.solver.Exchange(l, halos)
	const kappa = 0.02
	for _, p := range s.solver.H.Level(l) {
		e, eN := p.Field(FE), p.Field(FEN)
		s.solver.Launch(p, kRadDiffusion, amrhydro.InteriorSet(p), func(k int) {
			i, j := e.CellOf(k)
			lap := e.At(i+1, j) + e.At(i-1, j) + e.At(i, j+1) + e.At(i, j-1) - 4*e.At(i, j)
			eN.Set(i, j, e.At(i, j)+kappa*lap*0.25)
		})
		s.solver.Launch(p, kConduction, amrhydro.InteriorSet(p), func(k int) {
			i, j := e.CellOf(k)
			e.Set(i, j, math.Max(eN.At(i, j), hydro.PFloor))
		})
	}
}

// unportedPhase models the multi-million-line remainder of the production
// code that does not use RAJA: a fixed-cost parallel workload per step
// outside Apollo's hooks, sized against the level-0 domain.
func (s *Sim) unportedPhase() {
	n := s.solver.H.LevelDomain(0).Count() * 3
	raja.ForAll(s.unportedCtx, kUnported, raja.NewRange(0, n), func(int) {})
}

// Kernels lists the package's kernel launch sites.
func Kernels() []*raja.Kernel {
	return []*raja.Kernel{
		kEOS, kCalcDt, kLagrangeQ, kLagrangeAccel,
		kRemapRhoX, kRemapMomX, kRemapEneX,
		kRemapRhoY, kRemapMomY, kRemapEneY,
		kResetX, kResetY, kAdvecVofX, kAdvecVofY, kVofNorm,
		kMixRelax, kMatEOS, kMatUpdate,
		kRadDiffusion, kConduction, kHaloX, kHaloY,
	}
}
