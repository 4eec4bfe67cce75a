package features

import (
	"apollo/internal/caliper"
	"apollo/internal/instmix"
	"apollo/internal/raja"
)

// featureValue is the reference oracle for the compiled extraction plan:
// the name-driven walk ExtractInto used to perform per feature per
// launch, kept only so tests can hold the plan to it bit for bit.
func featureValue(name string, k *raja.Kernel, iset *raja.IndexSet, ann *caliper.Annotations) float64 {
	switch name {
	case Func:
		return caliper.Encode(k.Name)
	case FuncSize:
		return k.Mix.FuncSize()
	case IndexType:
		return float64(iset.Type())
	case LoopID:
		return float64(k.ID)
	case NumIndices:
		return float64(iset.Len())
	case NumSegments:
		return float64(iset.NumSegments())
	case Stride:
		return float64(iset.Stride())
	}
	if g, ok := instmix.GroupByName(name); ok {
		return k.Mix.Count(g)
	}
	if ann != nil {
		return ann.GetOr(name, 0)
	}
	return 0
}

// OracleExtract is Schema.Extract by the reference walk. It and
// BakedSites are exported to plan_test.go, which is an external test
// package because it drives the hydro applications and they import this
// one.
func OracleExtract(s *Schema, k *raja.Kernel, iset *raja.IndexSet, ann *caliper.Annotations) []float64 {
	out := make([]float64, s.Len())
	for i, n := range s.names {
		out[i] = featureValue(n, k, iset, ann)
	}
	return out
}

// BakedSites returns how many kernel sites the schema's plan has baked.
func (s *Schema) BakedSites() int {
	p := s.plan.Load()
	if p == nil {
		return 0
	}
	return len(*p.sites.Load())
}
