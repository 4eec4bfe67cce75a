package hashring

import (
	"strconv"
	"testing"

	"apollo/internal/bg/cowtest"
)

// TestFrozenSnapshots audits the ring's published table (DESIGN §8):
// membership changes rebuild and republish, no held table changes.
func TestFrozenSnapshots(t *testing.T) {
	r := New(8)
	cowtest.Frozen(t, "hashring.Ring.cur", func() any { return r.cur.Load() }, func(i int) {
		r.Add("replica-" + strconv.Itoa(i%5))
		if i%3 == 0 {
			r.Remove("replica-" + strconv.Itoa((i+2)%5))
		}
	})
}
