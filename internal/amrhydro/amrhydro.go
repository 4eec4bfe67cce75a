// Package amrhydro is the block-AMR hydro solver the CleverLeaf and ARES
// proxies share: a dimension-split first-order finite-volume scheme with
// Rusanov fluxes on a SAMRAI-style patch hierarchy (package amr),
// regridded every few steps from density and energy gradients, so the
// regridder sets every patch's size and with it each kernel's best
// execution policy.
//
// The package holds the phases both codes run — the equation of state
// and the stable timestep, artificial viscosity, the directional sweeps
// and their reset, the width-2 halo reflection — and launches each one
// patch at a time through a kernel the proxy hands it. It declares no
// kernels: raja.NewKernel numbers kernels at package init, and those
// numbers key the simulated clock's noise, so each proxy keeps its own
// launch sites, the order it declares them in, and the order of its
// phases in a step.
package amrhydro

import (
	"fmt"
	"math"

	"apollo/internal/amr"
	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/hydro"
	"apollo/internal/mesh"
	"apollo/internal/raja"
)

// Field names every patch carries. A proxy adds its viscosity field and
// whatever its own physics needs.
const (
	FRho  = "density"
	FMu   = "xmom"
	FMv   = "ymom"
	FE    = "energy"
	FP    = "pressure"
	FWs   = "wavespeed"
	FRhoN = "density_new"
	FMuN  = "xmom_new"
	FMvN  = "ymom_new"
	FEN   = "energy_new"
)

// Conserved are the fields exchanged between patches and levels.
var Conserved = []string{FRho, FMu, FMv, FE}

// regridEvery is the number of steps between regrids.
const regridEvery = 4

// Solver is one run: its configuration, deck and hierarchy.
type Solver struct {
	// Cfg is the run's configuration, with its defaults filled in.
	Cfg app.Config
	// H is the patch hierarchy.
	H *amr.Hierarchy

	deck  hydro.Deck
	q     string // the viscosity field
	cycle int
	time  float64
}

// New validates cfg's size, fills in its defaults, builds the hierarchy
// with fields allocated on every patch, and annotates the problem. q names
// the viscosity field among fields; name prefixes the error. Call Init
// next.
func New(name string, cfg app.Config, deck hydro.Deck, fields []string, q string) (*Solver, error) {
	if cfg.Size < 16 {
		return nil, fmt.Errorf("%s: size %d too small (min 16)", name, cfg.Size)
	}
	if cfg.Ann == nil {
		cfg.Ann = caliper.New()
	}
	if cfg.Ranks < 1 {
		cfg.Ranks = 1
	}
	base := 32
	if cfg.Size < base {
		base = cfg.Size
	}
	maxBlock := 0
	if cfg.Ranks > 1 {
		// Distributed runs decompose the base grid so each rank owns
		// roughly one base block; strong scaling shrinks the blocks.
		side := int(math.Ceil(math.Sqrt(float64(cfg.Ranks))))
		base = max(cfg.Size/side, 8)
		// Cap patch sizes so refined work stays divisible across ranks
		// (SAMRAI's largest-patch-size constraint).
		maxBlock = base * 2
	}
	h := amr.New(amr.Config{
		Domain:    mesh.NewBox(0, 0, cfg.Size, cfg.Size),
		MaxLevels: 2,
		Ratio:     2,
		Ghost:     2,
		TileSize:  4,
		TagBuffer: 1,
		BaseBlock: base,
		MaxBlock:  maxBlock,
		Fields:    fields,
	})
	cfg.Ann.SetString(features.ProblemName, deck.Name)
	cfg.Ann.Set(features.ProblemSize, float64(cfg.Size))
	cfg.Ann.Set(features.Timestep, 0)
	return &Solver{Cfg: cfg, H: h, deck: deck, q: q}, nil
}

// Init writes the deck's initial condition on level 0, regrids, and
// writes it again on the new fine patches. cell, when non-nil, is called
// for every cell written with the deck's material there.
func (s *Solver) Init(cell func(p *amr.Patch, i, j, mat int)) {
	s.applyDeck(0, cell)
	s.regrid()
	s.applyDeck(1, cell)
}

func (s *Solver) applyDeck(l int, cell func(p *amr.Patch, i, j, mat int)) {
	if l >= s.H.NumLevels() {
		return
	}
	domain := s.H.LevelDomain(l)
	nx, ny := float64(domain.NX()), float64(domain.NY())
	for _, p := range s.H.Level(l) {
		rho, mu, mv, e := p.Field(FRho), p.Field(FMu), p.Field(FMv), p.Field(FE)
		for j := p.Box.Y0; j < p.Box.Y1; j++ {
			for i := p.Box.X0; i < p.Box.X1; i++ {
				x := (float64(i) + 0.5) / nx
				y := (float64(j) + 0.5) / ny
				r, u, v, pr, mat := s.deck.Init(x, y)
				st := hydro.Conserved(r, u, v, pr)
				rho.Set(i, j, st.Rho)
				mu.Set(i, j, st.Mu)
				mv.Set(i, j, st.Mv)
				e.Set(i, j, st.E)
				if cell != nil {
					cell(p, i, j, mat)
				}
			}
		}
	}
}

// regrid rebuilds the fine level from the density- and energy-gradient
// tagger and reassigns patch ranks.
func (s *Solver) regrid() {
	s.H.Regrid(func(p *amr.Patch, tag func(i, j int)) {
		rho, e := p.Field(FRho), p.Field(FE)
		relGrad := func(f *mesh.Field, i, j int) float64 {
			c := f.At(i, j)
			if c <= 0 {
				return 0
			}
			return (math.Abs(f.At(i+1, j)-f.At(i-1, j)) +
				math.Abs(f.At(i, j+1)-f.At(i, j-1))) / c
		}
		for j := p.Box.Y0 + 1; j < p.Box.Y1-1; j++ {
			for i := p.Box.X0 + 1; i < p.Box.X1-1; i++ {
				if relGrad(rho, i, j) > 0.2 || relGrad(e, i, j) > 0.4 {
					tag(i, j)
				}
			}
		}
	})
	for idx, p := range s.H.Patches() {
		p.Rank = idx % s.Cfg.Ranks
	}
}

// Cycle returns the number of completed steps.
func (s *Solver) Cycle() int { return s.cycle }

// Time returns the simulated time.
func (s *Solver) Time() float64 { return s.time }

// BeginStep opens a step: it regrids every regridEvery cycles, annotates
// the timestep, runs the EOS and calc_dt kernels on every patch, and
// returns the stable timestep against the finest cell width.
func (s *Solver) BeginStep(eos, calcDt *raja.Kernel) float64 {
	if s.cycle > 0 && s.cycle%regridEvery == 0 {
		s.regrid()
	}
	s.Cfg.Ann.Set(features.Timestep, float64(s.cycle))
	maxSpeed := 0.0
	for l := 0; l < s.H.NumLevels(); l++ {
		for _, p := range s.H.Level(l) {
			s.eos(p, eos)
			s.calcDt(p, calcDt)
			_, hi := p.Field(FWs).MinMaxInterior()
			if hi > maxSpeed {
				maxSpeed = hi
			}
		}
	}
	dxFine := 1.0 / float64(s.H.LevelDomain(s.H.NumLevels()-1).NX())
	return hydro.Dt(maxSpeed, dxFine)
}

// EndStep restricts the fine level's conserved fields onto the coarse
// level and advances time by dt.
func (s *Solver) EndStep(dt float64) {
	s.H.Restrict(1, Conserved)
	s.time += dt
	s.cycle++
}

// Launch runs one kernel over a patch with patch-scoped annotations.
func (s *Solver) Launch(p *amr.Patch, k *raja.Kernel, iset *raja.IndexSet, body func(i int)) {
	s.Cfg.Ann.Set(features.PatchID, float64(p.ID))
	s.Cfg.Ann.Set("rank", float64(p.Rank))
	raja.ForAll(s.Cfg.Ctx, k, iset, body)
}

// InteriorSet returns the flat interior index set of a patch.
func InteriorSet(p *amr.Patch) *raja.IndexSet {
	return raja.NewRange(0, p.Box.Count())
}

// Halo is one update_halo launch site: the width-2 ghost strips of the
// physical edges in one direction, reflecting the interior of each field.
type Halo struct {
	Kernel *raja.Kernel
	Dir    int // 0 = x edges, 1 = y edges
	Fields []string
}

// Exchange fills level l's ghosts (coarse prolongation and sibling
// copies), then applies the physical boundary conditions on each patch
// through every halo in turn.
func (s *Solver) Exchange(l int, halos []Halo) {
	s.H.FillGhosts(l, Conserved, nil)
	domain := s.H.LevelDomain(l)
	for _, p := range s.H.Level(l) {
		for _, hk := range halos {
			s.reflect(p, hk, domain)
		}
	}
}

// reflect launches one halo's kernel on the physical edges the patch
// touches; the normal momentum flips sign.
func (s *Solver) reflect(p *amr.Patch, hk Halo, domain mesh.Box) {
	b := p.Box
	var strip int
	var lo, hi bool
	if hk.Dir == 0 {
		strip = 2 * b.NY()
		lo, hi = b.X0 == domain.X0, b.X1 == domain.X1
	} else {
		strip = 2 * b.NX()
		lo, hi = b.Y0 == domain.Y0, b.Y1 == domain.Y1
	}
	iset := raja.NewIndexSet()
	if lo {
		iset.Push(raja.RangeSegment{Begin: 0, End: strip})
	}
	if hi {
		iset.Push(raja.RangeSegment{Begin: strip, End: 2 * strip})
	}
	if iset.Len() == 0 {
		return
	}
	fields := make([]*mesh.Field, len(hk.Fields))
	signs := make([]float64, len(hk.Fields))
	for fi, name := range hk.Fields {
		fields[fi] = p.Field(name)
		signs[fi] = 1
		if (name == FMu && hk.Dir == 0) || (name == FMv && hk.Dir == 1) {
			signs[fi] = -1
		}
	}
	s.Launch(p, hk.Kernel, iset, func(kk int) {
		side := kk / strip // 0 = low edge, 1 = high edge
		r := kk % strip
		layer := r / (strip / 2) // ghost layer 0 or 1
		pos := r % (strip / 2)
		for fi, f := range fields {
			if hk.Dir == 0 {
				j := b.Y0 + pos
				if side == 0 {
					f.Set(b.X0-1-layer, j, signs[fi]*f.At(b.X0+layer, j))
				} else {
					f.Set(b.X1+layer, j, signs[fi]*f.At(b.X1-1-layer, j))
				}
			} else {
				i := b.X0 + pos
				if side == 0 {
					f.Set(i, b.Y0-1-layer, signs[fi]*f.At(i, b.Y0+layer))
				} else {
					f.Set(i, b.Y1+layer, signs[fi]*f.At(i, b.Y1-1-layer))
				}
			}
		}
	})
}

// state reads the conserved state of cell (i, j) on a patch.
func state(rho, mu, mv, e *mesh.Field, i, j int) hydro.State {
	return hydro.State{Rho: rho.At(i, j), Mu: mu.At(i, j), Mv: mv.At(i, j), E: e.At(i, j)}
}

func (s *Solver) eos(p *amr.Patch, k *raja.Kernel) {
	rho, mu, mv, e, pr := p.Field(FRho), p.Field(FMu), p.Field(FMv), p.Field(FE), p.Field(FP)
	s.Launch(p, k, InteriorSet(p), func(kk int) {
		i, j := rho.CellOf(kk)
		pr.Set(i, j, hydro.Pressure(state(rho, mu, mv, e, i, j)))
	})
}

func (s *Solver) calcDt(p *amr.Patch, k *raja.Kernel) {
	rho, mu, mv, e, ws := p.Field(FRho), p.Field(FMu), p.Field(FMv), p.Field(FE), p.Field(FWs)
	s.Launch(p, k, InteriorSet(p), func(kk int) {
		i, j := rho.CellOf(kk)
		st := state(rho, mu, mv, e, i, j)
		ws.Set(i, j, math.Max(hydro.WaveSpeedX(st), hydro.WaveSpeedY(st)))
	})
}

// Viscosity computes the artificial viscosity of compressing cells.
func (s *Solver) Viscosity(p *amr.Patch, k *raja.Kernel) {
	rho, mu, mv, q := p.Field(FRho), p.Field(FMu), p.Field(FMv), p.Field(s.q)
	s.Launch(p, k, InteriorSet(p), func(kk int) {
		i, j := rho.CellOf(kk)
		r := math.Max(rho.At(i, j), hydro.RhoFloor)
		div := (mu.At(i+1, j)-mu.At(i-1, j))/(2*r) + (mv.At(i, j+1)-mv.At(i, j-1))/(2*r)
		if div < 0 {
			q.Set(i, j, 0.1*r*div*div)
		} else {
			q.Set(i, j, 0)
		}
	})
}

// Accelerate applies the viscosity as a momentum damping source.
func (s *Solver) Accelerate(p *amr.Patch, k *raja.Kernel, dt float64) {
	mu, mv, q := p.Field(FMu), p.Field(FMv), p.Field(s.q)
	s.Launch(p, k, InteriorSet(p), func(kk int) {
		i, j := mu.CellOf(kk)
		damp := 1 / (1 + dt*q.At(i, j))
		mu.Set(i, j, mu.At(i, j)*damp)
		mv.Set(i, j, mv.At(i, j)*damp)
	})
}

// Sweep advances the conserved fields in direction dir (0 = x, 1 = y)
// into the *_new fields: density, momentum and energy, one kernel each.
func (s *Solver) Sweep(p *amr.Patch, lambda float64, dir int, kRho, kMom, kEne *raja.Kernel) {
	rho, mu, mv, e := p.Field(FRho), p.Field(FMu), p.Field(FMv), p.Field(FE)
	rhoN, muN, mvN, eN := p.Field(FRhoN), p.Field(FMuN), p.Field(FMvN), p.Field(FEN)
	flux := func(i, j int) (hydro.State, hydro.State) {
		lo := hydro.RusanovX(state(rho, mu, mv, e, i-1, j), state(rho, mu, mv, e, i, j))
		hi := hydro.RusanovX(state(rho, mu, mv, e, i, j), state(rho, mu, mv, e, i+1, j))
		return lo, hi
	}
	if dir == 1 {
		flux = func(i, j int) (hydro.State, hydro.State) {
			lo := hydro.RusanovY(state(rho, mu, mv, e, i, j-1), state(rho, mu, mv, e, i, j))
			hi := hydro.RusanovY(state(rho, mu, mv, e, i, j), state(rho, mu, mv, e, i, j+1))
			return lo, hi
		}
	}
	s.Launch(p, kRho, InteriorSet(p), func(k int) {
		i, j := rho.CellOf(k)
		lo, hi := flux(i, j)
		rhoN.Set(i, j, math.Max(rho.At(i, j)-lambda*(hi.Rho-lo.Rho), hydro.RhoFloor))
	})
	s.Launch(p, kMom, InteriorSet(p), func(k int) {
		i, j := rho.CellOf(k)
		lo, hi := flux(i, j)
		muN.Set(i, j, mu.At(i, j)-lambda*(hi.Mu-lo.Mu))
		mvN.Set(i, j, mv.At(i, j)-lambda*(hi.Mv-lo.Mv))
	})
	s.Launch(p, kEne, InteriorSet(p), func(k int) {
		i, j := rho.CellOf(k)
		lo, hi := flux(i, j)
		eN.Set(i, j, math.Max(e.At(i, j)-lambda*(hi.E-lo.E), hydro.PFloor))
	})
}

// Reset copies the *_new fields back into the conserved fields. cell,
// when non-nil, runs in the same kernel on every cell after the copy.
func (s *Solver) Reset(p *amr.Patch, k *raja.Kernel, cell func(i, j int)) {
	rho, mu, mv, e := p.Field(FRho), p.Field(FMu), p.Field(FMv), p.Field(FE)
	rhoN, muN, mvN, eN := p.Field(FRhoN), p.Field(FMuN), p.Field(FMvN), p.Field(FEN)
	s.Launch(p, k, InteriorSet(p), func(kk int) {
		i, j := rho.CellOf(kk)
		rho.Set(i, j, rhoN.At(i, j))
		mu.Set(i, j, muN.At(i, j))
		mv.Set(i, j, mvN.At(i, j))
		e.Set(i, j, eN.At(i, j))
		if cell != nil {
			cell(i, j)
		}
	})
}

// Total returns the level-0 integral of a field (its sum scaled by cell
// area): for density and energy, quantities the scheme conserves up to
// boundary fluxes.
func (s *Solver) Total(field string) float64 {
	domain := s.H.LevelDomain(0)
	area := 1.0 / float64(domain.NX()) / float64(domain.NY())
	var total float64
	for _, p := range s.H.Level(0) {
		total += p.Field(field).SumInterior() * area
	}
	return total
}
