package registry

import (
	"testing"

	"apollo/internal/bg/cowtest"
	"apollo/internal/core"
)

// TestFrozenSnapshots audits both levels the registry publishes (DESIGN
// §8): the name map, republished when a name is new, and the entry each
// name's cell holds, replaced whole by a publish of that name.
func TestFrozenSnapshots(t *testing.T) {
	r := New()
	models := []*core.Model{testModel(t, false), testModel(t, true)}
	names := []string{"lulesh/policy", "ares/policy", "cleverleaf/policy"}
	load := func() any {
		byName := r.byName.Load()
		entries := map[string]*Entry{}
		for name, cell := range *byName {
			entries[name] = cell.Load()
		}
		return []any{byName, entries}
	}
	cowtest.Frozen(t, "registry.Registry.byName", load, func(i int) {
		if _, err := r.Publish(names[i%len(names)], models[i%len(models)]); err != nil {
			t.Error(err)
		}
	})
}
