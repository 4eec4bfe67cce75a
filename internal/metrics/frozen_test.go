package metrics

import (
	"strconv"
	"testing"

	"apollo/internal/bg/cowtest"
)

// TestFrozenSnapshots audits the family maps (DESIGN §8): first sight of
// a metric or label value clones and republishes, steady-state updates
// touch only the atomic cells the snapshots share.
func TestFrozenSnapshots(t *testing.T) {
	m := New()
	cowtest.Frozen(t, "metrics.Metrics.cur", func() any { return m.cur.Load() }, func(i int) {
		label := strconv.Itoa(i)
		m.CounterAdd("apollo_requests_total", "handler", label, "requests", 1)
		m.CounterAdd("apollo_requests_total", "handler", "0", "requests", 1)
		m.GaugeSet("apollo_ring_used", "shard", label, "slots in use", int64(i))
		m.ObserveLabeled("apollo_stage_seconds", "stage", label, "stage time", float64(i)*1e-3)
		m.Observe("apollo_step_seconds", "step time", 0.5)
	})
}
