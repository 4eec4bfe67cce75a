// Package features defines the feature-vector schema Apollo collects for
// every kernel execution — the three categories of Table I in the paper:
//
//  1. kernel features, taken from the arguments of each forall launch
//     (func, func_size, index_type, loop_id, num_indices, num_segments,
//     stride);
//  2. instruction features, the grouped mnemonic counts of the kernel
//     body (see package instmix); and
//  3. application features, optionally annotated by the application
//     through the caliper blackboard (timestep, problem_size,
//     problem_name, patch_id).
package features

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"apollo/internal/caliper"
	"apollo/internal/instmix"
	"apollo/internal/raja"
)

// Kernel feature names (paper Table I, first block).
const (
	Func        = "func"
	FuncSize    = "func_size"
	IndexType   = "index_type"
	LoopID      = "loop_id"
	NumIndices  = "num_indices"
	NumSegments = "num_segments"
	Stride      = "stride"
)

// Application feature names (paper Table I, third block).
const (
	Timestep    = "timestep"
	ProblemSize = "problem_size"
	ProblemName = "problem_name"
	PatchID     = "patch_id"
)

// KernelFeatureNames returns the kernel-feature block in schema order.
func KernelFeatureNames() []string {
	return []string{Func, FuncSize, IndexType, LoopID, NumIndices, NumSegments, Stride}
}

// AppFeatureNames returns the application-feature block in schema order.
func AppFeatureNames() []string {
	return []string{Timestep, ProblemSize, ProblemName, PatchID}
}

// Fingerprint hashes a feature-name list with FNV-1a-64, seeded with
// "apollo-schema-v1" and separating names with NUL so boundaries are
// unambiguous. TestTableIFingerprintMatchesGolden pins the Table I
// schema's fingerprint to the golden constant core.TableISchemaHash.
func Fingerprint(names []string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	mix("apollo-schema-v1")
	for _, n := range names {
		mix("\x00")
		mix(n)
	}
	return h
}

// Schema is an ordered list of feature names defining the layout of
// feature vectors.
type Schema struct {
	names []string
	index map[string]int

	// plan is the compiled extraction plan, built on first extraction so
	// schemas that only describe a layout (model decode) pay nothing.
	plan atomic.Pointer[plan]
}

// NewSchema builds a schema from the given names, in order. The names
// are the program's own; a duplicate is a bug and panics.
func NewSchema(names ...string) *Schema {
	s, err := ParseSchema(names)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// ParseSchema is NewSchema for names that arrive from outside the
// program (a model header): a duplicate is an error.
func ParseSchema(names []string) (*Schema, error) {
	s := &Schema{names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range s.names {
		if _, dup := s.index[n]; dup {
			return nil, fmt.Errorf("features: duplicate feature %q", n)
		}
		s.index[n] = i
	}
	return s, nil
}

// TableI returns the full schema of Table I: kernel features, the 30
// instruction mnemonic groups, and application features.
func TableI() *Schema {
	names := KernelFeatureNames()
	names = append(names, instmix.GroupNames()...)
	names = append(names, AppFeatureNames()...)
	return NewSchema(names...)
}

// Len returns the number of features.
func (s *Schema) Len() int { return len(s.names) }

// Names returns the feature names in vector order.
func (s *Schema) Names() []string { return append([]string(nil), s.names...) }

// Name returns the i-th feature name.
func (s *Schema) Name(i int) string { return s.names[i] }

// Index returns the position of the named feature, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named feature.
func (s *Schema) Has(name string) bool { _, ok := s.index[name]; return ok }

// Without returns a schema with the named features removed. It is used to
// train deck-independent models (the paper's Table II models exclude
// features specific to a particular input deck).
func (s *Schema) Without(drop ...string) *Schema {
	dropSet := make(map[string]bool, len(drop))
	for _, d := range drop {
		dropSet[d] = true
	}
	var kept []string
	for _, n := range s.names {
		if !dropSet[n] {
			kept = append(kept, n)
		}
	}
	return NewSchema(kept...)
}

// Select returns a schema containing only the named features, in the
// given order. Unknown names panic: reduced models must be built from
// features that exist.
func (s *Schema) Select(keep ...string) *Schema {
	for _, k := range keep {
		if !s.Has(k) {
			panic(fmt.Sprintf("features: unknown feature %q", k))
		}
	}
	return NewSchema(keep...)
}

// Project maps a vector laid out by this schema onto the target schema.
// Features absent from this schema are zero-filled.
func (s *Schema) Project(v []float64, target *Schema) []float64 {
	out := make([]float64, target.Len())
	for i, n := range target.names {
		if j := s.Index(n); j >= 0 && j < len(v) {
			out[i] = v[j]
		}
	}
	return out
}

// Extract assembles the Table I feature vector for one kernel launch,
// laid out by this schema. Unknown schema entries read from the
// annotation blackboard (zero when unset), so applications can extend the
// schema with custom features (e.g. num_materials) just by annotating.
func (s *Schema) Extract(k *raja.Kernel, iset *raja.IndexSet, ann *caliper.Annotations) []float64 {
	return s.ExtractInto(make([]float64, len(s.names)), k, iset, ann)
}

// ExtractInto assembles the feature vector into dst, grown when its
// capacity falls short, and returns dst[:Len()]. A launch costs a copy of
// the kernel site's static block, the index-set getters and one indexed
// load per blackboard feature: names are resolved once per schema
// (compile, blackboard names to caliper slots), kernel constants once per
// site (bake), and only those two allocate. One vector's blackboard
// values all come from a single published state.
//
//apollo:hotpath
func (s *Schema) ExtractInto(dst []float64, k *raja.Kernel, iset *raja.IndexSet, ann *caliper.Annotations) []float64 {
	return s.Full(k).Fill(dst, iset, ann)
}

// Full returns k's full-width site, the one ExtractInto fills, compiling
// and baking on first use. A caller that keeps it per kernel (the tuner's
// site region) fills the same vector without this lookup.
//
//apollo:hotpath
func (s *Schema) Full(k *raja.Kernel) *Site {
	p := s.plan.Load()
	if p == nil {
		p = s.compile()
	}
	site, ok := (*p.sites.Load())[k]
	if !ok {
		site = p.bake(k)
	}
	return site
}

// Site is a selection of a schema's features compiled for one kernel, its
// kernel-constant features (func, func_size, loop_id, the mnemonic counts)
// in place and the index-set and blackboard positions listed for Fill: the
// full vector ExtractInto fills, or, from Schema.Site, what one model reads.
type Site struct {
	static        []float64
	launch, board []op // dst is a position in the site's vector
}

// Site compiles for kernel k the projection src of the schema's features
// (position i reads the schema's feature src[i], -1 reads 0): once per
// launch site and model, never per launch.
func (s *Schema) Site(k *raja.Kernel, src []int32) *Site {
	full := s.Full(k)
	site := &Site{static: make([]float64, len(src))}
	for i, j := range src {
		if j < 0 {
			continue
		}
		site.static[i] = full.static[j]
		for _, o := range full.launch {
			if o.dst == int(j) {
				site.launch = append(site.launch, op{dst: i, kind: o.kind})
			}
		}
		for _, b := range full.board {
			if b.dst == int(j) {
				site.board = append(site.board, op{dst: i, kind: opBoard, slot: b.slot})
			}
		}
	}
	return site
}

// Fill writes the site's vector for one launch into dst, grown when its
// capacity falls short, and returns it.
//
//apollo:hotpath
func (s *Site) Fill(dst []float64, iset *raja.IndexSet, ann *caliper.Annotations) []float64 {
	dst = slices.Grow(dst[:0], len(s.static))[:len(s.static)]
	copy(dst, s.static)
	for _, o := range s.launch {
		switch o.kind {
		case opIndexType:
			dst[o.dst] = float64(iset.Type())
		case opNumIndices:
			dst[o.dst] = float64(iset.Len())
		case opNumSegments:
			dst[o.dst] = float64(iset.NumSegments())
		case opStride:
			dst[o.dst] = float64(iset.Stride())
		}
	}
	if ann != nil && len(s.board) > 0 {
		st := ann.State()
		for _, b := range s.board {
			dst[b.dst] = st.At(b.slot)
		}
	}
	return dst
}

// opKind is what one compiled feature reads. The order is the plan's
// three tiers: kernel-static kinds (baked per site) up to opCount, then
// the index-set kinds (read per launch), then opBoard.
type opKind uint8

const (
	opFunc opKind = iota
	opFuncSize
	opLoopID
	opCount // mnemonic count of op.group
	opIndexType
	opNumIndices
	opNumSegments
	opStride
	opBoard // blackboard attribute in caliper slot op.slot
)

var kernelOps = map[string]opKind{
	Func: opFunc, FuncSize: opFuncSize, LoopID: opLoopID, IndexType: opIndexType,
	NumIndices: opNumIndices, NumSegments: opNumSegments, Stride: opStride,
}

// op writes one feature to position dst of the vector.
type op struct {
	dst   int
	kind  opKind
	group instmix.Group
	slot  int // opBoard: the attribute's caliper.Slot
}

// plan is a schema's names compiled into typed ops, with the cache of
// baked sites that keeps kernel constants off the launch path.
type plan struct {
	static, launch, board []op

	// sites holds each launched kernel's full-width site, its static
	// block the kernel-constant features filled in and every other
	// position zero (what an unset blackboard reads). Copy-on-write, and
	// correct only because a launched kernel's name, ID and mix never
	// change (the contract on raja.Kernel).
	sites atomic.Pointer[map[*raja.Kernel]*Site]
}

// compile builds and installs the schema's plan.
//
//apollo:coldpath name resolution runs once per schema, on its first extraction
func (s *Schema) compile() *plan {
	p := &plan{}
	for i, n := range s.names {
		o := op{dst: i, kind: opBoard}
		if kind, ok := kernelOps[n]; ok {
			o.kind = kind
		} else if g, ok := instmix.GroupByName(n); ok {
			o.kind, o.group = opCount, g
		}
		switch {
		case o.kind <= opCount:
			p.static = append(p.static, o)
		case o.kind < opBoard:
			p.launch = append(p.launch, o)
		default:
			o.slot = caliper.Slot(n)
			p.board = append(p.board, o)
		}
	}
	sites := map[*raja.Kernel]*Site{}
	p.sites.Store(&sites)
	if !s.plan.CompareAndSwap(nil, p) {
		return s.plan.Load() // a concurrent first extraction won; share its caches
	}
	return p
}

// bake computes and publishes k's full-width site.
//
//apollo:coldpath the static block is baked once per (schema, kernel site), never per launch
func (p *plan) bake(k *raja.Kernel) *Site {
	block := make([]float64, len(p.static)+len(p.launch)+len(p.board))
	for _, o := range p.static {
		switch o.kind {
		case opFunc:
			block[o.dst] = caliper.Encode(k.Name)
		case opFuncSize:
			block[o.dst] = k.Mix.FuncSize()
		case opLoopID:
			block[o.dst] = float64(k.ID)
		case opCount:
			block[o.dst] = k.Mix.Count(o.group)
		}
	}
	site := &Site{static: block, launch: p.launch, board: p.board}
	for {
		old := p.sites.Load()
		if won, ok := (*old)[k]; ok {
			return won
		}
		next := maps.Clone(*old)
		next[k] = site
		if p.sites.CompareAndSwap(old, &next) {
			return site
		}
	}
}
