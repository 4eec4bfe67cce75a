package flight

import (
	"strconv"
	"testing"

	"apollo/internal/bg/cowtest"
)

// TestFrozenSnapshots audits the recorder's site map (DESIGN §8): a new
// site clones and republishes, and what a registered site holds in plain
// fields never changes — its EWMAs and decoder are atomic cells. The ring
// is a claim-protocol arena, not a copy-on-write value, and stays out.
func TestFrozenSnapshots(t *testing.T) {
	r := New(Options{})
	cowtest.Frozen(t, "flight.Recorder.sites", func() any { return r.sites.Load() }, func(i int) {
		s := r.RegisterSite(uint64(i), "site-"+strconv.Itoa(i))
		s.SetDecoder(&TrailDecoder{})
		r.RegisterSite(uint64(i/2), "again")
	})
}
