package client

import (
	"testing"

	"apollo/internal/bg/cowtest"
	"apollo/internal/core"
	"apollo/internal/features"
)

// TestFrozenSnapshots audits what the client publishes (DESIGN §8): the
// name map, republished when a name is first asked for, the Cached copy
// each name's cell holds, replaced whole by a fetch that finds a new
// version, and the projector set a Source swaps in. Held, not Frozen: a cell's backoff fields beside the
// atomic one are written in place under c.mu — to the same values on
// every successful fetch here — and a lock-free reader may not look.
func TestFrozenSnapshots(t *testing.T) {
	ts, reg := newService(t)
	c := New(ts.URL, Options{})
	models := []*core.Model{testModel(t, false), testModel(t, true)}
	names := []string{"lulesh/policy", "ares/policy", "cleverleaf/policy"}
	src := NewSource(c, features.TableI(), names[0], "")
	load := func() any {
		states := c.models.Load()
		cached := map[string]*Cached{}
		for name, st := range *states {
			cached[name] = st.cur.Load()
		}
		return []any{states, cached, src.Projectors()}
	}
	cowtest.Held(t, "client.Client.models", load, func(i int) {
		name := names[i%len(names)]
		if _, err := reg.Publish(name, models[i%len(models)]); err != nil {
			t.Error(err)
		}
		if got, err := c.Fetch(name); err != nil || got.Version != i/len(names)+1 {
			t.Errorf("fetch %s: %+v, %v", name, got, err)
		}
		if err := src.Refresh(); err != nil {
			t.Error(err)
		}
	})
}
