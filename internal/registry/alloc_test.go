package registry

import (
	"testing"

	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/features"
)

// Registry.Get is //apollo:hotpath — the serving daemon resolves it on
// every decision request — so its zero-allocation claim is pinned both
// statically (apollo-vet) and here at runtime.
func TestGetAllocationFree(t *testing.T) {
	r := New()
	schema := features.TableI()
	m, err := core.NewModel(core.ExecutionPolicy, schema,
		&dtree.Tree{Root: &dtree.Node{Feature: -1, Label: 1}, NumFeatures: schema.Len(), NumClasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish("guard", m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := r.Get("guard"); !ok {
			t.Fatal("model vanished")
		}
	})
	if allocs != 0 {
		t.Errorf("Registry.Get allocates %.1f objects per call, want 0", allocs)
	}
}
