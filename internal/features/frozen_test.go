package features

import (
	"strconv"
	"testing"

	"apollo/internal/bg/cowtest"
	"apollo/internal/caliper"
	"apollo/internal/raja"
)

// TestFrozenSnapshots audits what a compiled schema publishes (DESIGN
// §8): the plan and the per-site static blocks a new kernel site
// republishes, while the blackboard it reads is rewritten between launches.
func TestFrozenSnapshots(t *testing.T) {
	s := TableI()
	ann := caliper.New()
	iset := raja.NewRange(0, 64)
	s.Extract(raja.NewKernel("warmup", nil), iset, ann)
	load := func() any {
		p := s.plan.Load()
		return []any{p, p.sites.Load()}
	}
	cowtest.Frozen(t, "features.Schema.plan", load, func(i int) {
		ann.Set(Timestep, float64(i))
		s.Extract(raja.NewKernel("site-"+strconv.Itoa(i), nil), iset, ann)
	})
}
