package caliper

import (
	"testing"

	"apollo/internal/bg/cowtest"
)

// TestFrozenSnapshots audits the blackboard's copy-on-write stack map
// (DESIGN §8): every kind of write republishes, no held State changes.
func TestFrozenSnapshots(t *testing.T) {
	a := New()
	cowtest.Frozen(t, "caliper.Annotations.cur", func() any { return a.State() }, func(i int) {
		switch i % 4 {
		case 0:
			a.Set("timestep", float64(i))
		case 1:
			a.Begin("phase", float64(i))
		case 2:
			a.SetString("problem", "sedov")
		case 3:
			a.End("phase")
		}
	})
}
