package tuner

import (
	"strconv"
	"testing"

	"apollo/internal/bg/cowtest"
	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// TestFrozenSnapshots audits what the tuner publishes (DESIGN §8): the
// projector set a model install swaps in, the source box, and the site
// map a site's first explored launch republishes — the accounts in it are
// atomic cells, which every launch here bumps in place.
func TestFrozenSnapshots(t *testing.T) {
	schema := features.TableI()
	model := trainPolicyModel(t, schema)
	tn := NewTuner(schema, caliper.New(), raja.Params{}).UsePolicyModel(model)
	tn.ExploreEvery(2)
	iset := raja.NewRange(0, 50)
	load := func() any {
		box := tn.src.Load()
		return []any{box, box.s.Projectors(), tn.sites.Load()}
	}
	cowtest.Frozen(t, "tuner.Tuner.sites", load, func(i int) {
		if i%8 == 0 {
			tn.UsePolicyModel(model)
		}
		if i%32 == 0 {
			tn.UseSource(nil)
		}
		for _, name := range []string{"site-" + strconv.Itoa(i), "site-0"} {
			k := raja.NewKernel(name, nil)
			p, _ := tn.Begin(k, iset)
			tn.End(k, iset, p, 100)
		}
	})
}
