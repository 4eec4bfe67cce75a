// Package amr implements the block-structured adaptive-mesh-refinement
// substrate the CleverLeaf and ARES proxies run on, standing in for the
// SAMRAI library: a patch hierarchy over a 2D structured domain, gradient
// tagging, tile-based clustering of tagged cells into patches, regridding
// with prolongation, ghost-cell exchange, and fine-to-coarse restriction.
//
// The property the paper's tuning exploits lives here: as the solution
// evolves, regridding produces patches of widely varying shapes and sizes
// — many of them too small to amortize a parallel region — so the best
// execution policy changes from launch to launch.
package amr

import (
	"fmt"

	"apollo/internal/mesh"
)

// Patch is one rectangular block of one refinement level, holding all of
// the application's fields.
type Patch struct {
	// ID is a hierarchy-unique patch identifier (the paper's patch_id
	// feature).
	ID int
	// Level is the refinement level (0 = coarsest).
	Level int
	// Box is the patch's cell region in its level's index space.
	Box mesh.Box
	// Rank is the owning rank in distributed execution simulations.
	Rank int

	fields map[string]*mesh.Field
}

// Field returns the named field, panicking if it does not exist.
func (p *Patch) Field(name string) *mesh.Field {
	f := p.fields[name]
	if f == nil {
		panic(fmt.Sprintf("amr: patch %d has no field %q", p.ID, name))
	}
	return f
}

// Config describes a hierarchy.
type Config struct {
	// Domain is the level-0 cell region.
	Domain mesh.Box
	// MaxLevels is the number of levels (1 = no refinement).
	MaxLevels int
	// Ratio is the refinement ratio between levels (default 2).
	Ratio int
	// Ghost is the ghost width of every field (default 2, the paper's
	// boundary-strip width).
	Ghost int
	// TileSize is the clustering granularity in cells (default 8).
	TileSize int
	// TagBuffer grows tagged regions by this many cells (default 1).
	TagBuffer int
	// BaseBlock splits level 0 into blocks of at most BaseBlock cells
	// per side (0 = single patch).
	BaseBlock int
	// MaxBlock caps refined patches at MaxBlock cells per side,
	// SAMRAI's largest-patch-size constraint (0 = unlimited). It keeps
	// patches divisible across ranks in distributed runs.
	MaxBlock int
	// Fields are the cell-centered fields allocated on every patch.
	Fields []string
}

func (c Config) withDefaults() Config {
	if c.MaxLevels < 1 {
		c.MaxLevels = 1
	}
	if c.Ratio < 2 {
		c.Ratio = 2
	}
	if c.Ghost == 0 {
		c.Ghost = 2
	}
	if c.TileSize < 2 {
		c.TileSize = 8
	}
	if c.TagBuffer < 0 {
		c.TagBuffer = 0
	}
	return c
}

// Hierarchy is a patch hierarchy: levels of patches covering
// progressively refined subsets of the domain.
type Hierarchy struct {
	cfg    Config
	levels [][]*Patch
	nextID int
}

// New builds a hierarchy with a fully populated level 0.
func New(cfg Config) *Hierarchy {
	cfg = cfg.withDefaults()
	if cfg.Domain.Empty() {
		panic("amr: empty domain")
	}
	h := &Hierarchy{cfg: cfg, levels: make([][]*Patch, cfg.MaxLevels)}
	for _, b := range splitBox(cfg.Domain, cfg.BaseBlock) {
		h.levels[0] = append(h.levels[0], h.newPatch(0, b))
	}
	return h
}

// splitBox cuts a box into blocks of at most block cells per side
// (block <= 0 keeps the box whole).
func splitBox(b mesh.Box, block int) []mesh.Box {
	if block <= 0 {
		return []mesh.Box{b}
	}
	var out []mesh.Box
	for y := b.Y0; y < b.Y1; y += block {
		y1 := y + block
		if y1 > b.Y1 {
			y1 = b.Y1
		}
		for x := b.X0; x < b.X1; x += block {
			x1 := x + block
			if x1 > b.X1 {
				x1 = b.X1
			}
			out = append(out, mesh.NewBox(x, y, x1, y1))
		}
	}
	return out
}

func (h *Hierarchy) newPatch(level int, box mesh.Box) *Patch {
	p := &Patch{ID: h.nextID, Level: level, Box: box, fields: make(map[string]*mesh.Field, len(h.cfg.Fields))}
	h.nextID++
	for _, name := range h.cfg.Fields {
		p.fields[name] = mesh.NewField(box, h.cfg.Ghost)
	}
	return p
}

// NumLevels returns the configured number of levels.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns the patches of the given level.
func (h *Hierarchy) Level(l int) []*Patch { return h.levels[l] }

// Patches returns every patch, coarsest level first.
func (h *Hierarchy) Patches() []*Patch {
	var out []*Patch
	for _, lvl := range h.levels {
		out = append(out, lvl...)
	}
	return out
}

// NumPatches returns the total patch count.
func (h *Hierarchy) NumPatches() int {
	n := 0
	for _, lvl := range h.levels {
		n += len(lvl)
	}
	return n
}

// LevelDomain returns the domain box in level-l index space.
func (h *Hierarchy) LevelDomain(l int) mesh.Box {
	d := h.cfg.Domain
	for i := 0; i < l; i++ {
		d = d.Refine(h.cfg.Ratio)
	}
	return d
}

// Tagger marks level cells needing refinement: it is called once per
// patch and calls tag(i, j) for every cell (in the patch's level index
// space) whose feature (e.g. density gradient) exceeds a threshold.
type Tagger func(p *Patch, tag func(i, j int))

// Regrid rebuilds every level above 0 from the tagger, reusing data from
// the previous fine patches where they overlap and prolonging from the
// coarser level elsewhere. It returns the number of patches created.
func (h *Hierarchy) Regrid(tagger Tagger) int {
	created := 0
	for l := 0; l < len(h.levels)-1; l++ {
		boxes := h.clusterTags(l, tagger)
		old := h.levels[l+1]
		h.levels[l+1] = nil
		for _, fineBox := range boxes {
			np := h.newPatch(l+1, fineBox)
			h.initPatch(np, old)
			h.levels[l+1] = append(h.levels[l+1], np)
			created++
		}
	}
	return created
}

// clusterTags collects tags on level l, buffers them, and clusters them
// into refined boxes for level l+1.
func (h *Hierarchy) clusterTags(l int, tagger Tagger) []mesh.Box {
	tile := h.cfg.TileSize
	domain := h.LevelDomain(l)
	// Tile grid over the level domain.
	tw := (domain.NX() + tile - 1) / tile
	th := (domain.NY() + tile - 1) / tile
	tagged := make([]bool, tw*th)
	mark := func(i, j int) {
		if !domain.Contains(i, j) {
			return
		}
		tx := (i - domain.X0) / tile
		ty := (j - domain.Y0) / tile
		tagged[ty*tw+tx] = true
	}
	buf := h.cfg.TagBuffer
	for _, p := range h.levels[l] {
		tagger(p, func(i, j int) {
			for dj := -buf; dj <= buf; dj++ {
				for di := -buf; di <= buf; di++ {
					mark(i+di, j+dj)
				}
			}
		})
	}
	boxes := clusterTiles(tagged, tw, th)
	out := make([]mesh.Box, 0, len(boxes))
	for _, tb := range boxes {
		cells := mesh.NewBox(
			domain.X0+tb.X0*tile, domain.Y0+tb.Y0*tile,
			domain.X0+tb.X1*tile, domain.Y0+tb.Y1*tile,
		).Intersect(domain)
		fine := cells.Refine(h.cfg.Ratio)
		if fine.Empty() {
			continue
		}
		if h.cfg.MaxBlock > 0 {
			out = append(out, splitBox(fine, h.cfg.MaxBlock)...)
		} else {
			out = append(out, fine)
		}
	}
	return out
}

// clusterTiles greedily merges tagged tiles into rectangles: maximal
// horizontal runs per row, then vertically merged when runs align. It is
// a simplified Berger–Rigoutsos stand-in that produces the same
// qualitative outcome — a set of variably sized rectangular patches
// covering the tagged region.
func clusterTiles(tagged []bool, tw, th int) []mesh.Box {
	type run struct{ x0, x1 int }
	rowRuns := make([][]run, th)
	for ty := 0; ty < th; ty++ {
		for tx := 0; tx < tw; {
			if !tagged[ty*tw+tx] {
				tx++
				continue
			}
			start := tx
			for tx < tw && tagged[ty*tw+tx] {
				tx++
			}
			rowRuns[ty] = append(rowRuns[ty], run{start, tx})
		}
	}
	var boxes []mesh.Box
	consumed := make([][]bool, th)
	for ty := range rowRuns {
		consumed[ty] = make([]bool, len(rowRuns[ty]))
	}
	for ty := 0; ty < th; ty++ {
		for ri, r := range rowRuns[ty] {
			if consumed[ty][ri] {
				continue
			}
			consumed[ty][ri] = true
			y1 := ty + 1
			for y1 < th {
				merged := false
				for si, s := range rowRuns[y1] {
					if !consumed[y1][si] && s.x0 == r.x0 && s.x1 == r.x1 {
						consumed[y1][si] = true
						merged = true
						break
					}
				}
				if !merged {
					break
				}
				y1++
			}
			boxes = append(boxes, mesh.NewBox(r.x0, ty, r.x1, y1))
		}
	}
	return boxes
}

// initPatch fills a new fine patch: piecewise-constant prolongation from
// the coarser level, then copy from any old fine patches that overlap.
func (h *Hierarchy) initPatch(np *Patch, old []*Patch) {
	r := h.cfg.Ratio
	coarse := h.levels[np.Level-1]
	for name, f := range np.fields {
		for j := np.Box.Y0; j < np.Box.Y1; j++ {
			for i := np.Box.X0; i < np.Box.X1; i++ {
				ci, cj := floorDiv(i, r), floorDiv(j, r)
				if cp := patchContaining(coarse, ci, cj); cp != nil {
					f.Set(i, j, cp.Field(name).At(ci, cj))
				}
			}
		}
	}
	for _, op := range old {
		ov := np.Box.Intersect(op.Box)
		if ov.Empty() {
			continue
		}
		for name, f := range np.fields {
			f.CopyRegion(op.Field(name), ov)
		}
	}
}

// patchContaining returns the patch whose interior contains (i, j).
func patchContaining(patches []*Patch, i, j int) *Patch {
	for _, p := range patches {
		if p.Box.Contains(i, j) {
			return p
		}
	}
	return nil
}

// BC fills the physical-boundary ghost cells of one field of a patch; it
// is supplied by the application (reflective, outflow, ...).
type BC func(p *Patch, field string, f *mesh.Field, domain mesh.Box)

// FillGhosts fills the ghost layers of every patch on the level, in
// SAMRAI order: prolongation from the next coarser level, then
// same-level neighbor copies, then the physical boundary condition.
func (h *Hierarchy) FillGhosts(l int, fields []string, bc BC) {
	r := h.cfg.Ratio
	domain := h.LevelDomain(l)
	var coarse []*Patch
	if l > 0 {
		coarse = h.levels[l-1]
	}
	for _, p := range h.levels[l] {
		grown := p.Box.Grow(h.cfg.Ghost)
		for _, name := range fields {
			f := p.Field(name)
			// 1. Coarse prolongation into all ghost cells inside the domain.
			if coarse != nil {
				h.prolongGhosts(f, p, coarse, name, grown, domain, r)
			}
			// 2. Same-level copies.
			for _, q := range h.levels[l] {
				if q == p {
					continue
				}
				ov := grown.Intersect(q.Box)
				if !ov.Empty() {
					f.CopyRegion(q.Field(name), ov)
				}
			}
			// 3. Physical boundary.
			if bc != nil {
				bc(p, name, f, domain)
			}
		}
	}
}

func (h *Hierarchy) prolongGhosts(f *mesh.Field, p *Patch, coarse []*Patch, name string, grown, domain mesh.Box, r int) {
	for j := grown.Y0; j < grown.Y1; j++ {
		for i := grown.X0; i < grown.X1; i++ {
			if p.Box.Contains(i, j) || !domain.Contains(i, j) {
				continue
			}
			ci, cj := floorDiv(i, r), floorDiv(j, r)
			if cp := patchContaining(coarse, ci, cj); cp != nil {
				f.Set(i, j, cp.Field(name).At(ci, cj))
			}
		}
	}
}

// Restrict averages fine-level data onto the cells of the next coarser
// level that the fine level covers, for the given fields.
func (h *Hierarchy) Restrict(fineLevel int, fields []string) {
	if fineLevel <= 0 || fineLevel >= len(h.levels) {
		return
	}
	r := h.cfg.Ratio
	for _, cp := range h.levels[fineLevel-1] {
		for _, fp := range h.levels[fineLevel] {
			ovCoarse := cp.Box.Intersect(fp.Box.Coarsen(r))
			if ovCoarse.Empty() {
				continue
			}
			for _, name := range fields {
				cf, ff := cp.Field(name), fp.Field(name)
				for cj := ovCoarse.Y0; cj < ovCoarse.Y1; cj++ {
					for ci := ovCoarse.X0; ci < ovCoarse.X1; ci++ {
						// Average only the fine cells the patch actually
						// owns; unaligned patch edges (possible under
						// MaxBlock splitting) contribute partial blocks.
						var sum float64
						count := 0
						for fj := cj * r; fj < (cj+1)*r; fj++ {
							for fi := ci * r; fi < (ci+1)*r; fi++ {
								if fp.Box.Contains(fi, fj) {
									sum += ff.At(fi, fj)
									count++
								}
							}
						}
						if count == r*r {
							cf.Set(ci, cj, sum/float64(count))
						}
					}
				}
			}
		}
	}
}

func floorDiv(a, r int) int {
	q := a / r
	if a%r != 0 && (a < 0) != (r < 0) {
		q--
	}
	return q
}
