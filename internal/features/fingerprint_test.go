package features_test

import (
	"testing"

	"apollo/internal/core"
	"apollo/internal/features"
)

// The Table I schema must fingerprint to the golden constant
// core.TableISchemaHash; this test is the only owner of that property.
// If it fails, the feature schema changed: bump the model format version
// and the golden constant together.
func TestTableIFingerprintMatchesGolden(t *testing.T) {
	got := features.Fingerprint(features.TableI().Names())
	if got != core.TableISchemaHash {
		t.Errorf("Fingerprint(TableI) = %#016x, want golden core.TableISchemaHash = %#016x",
			got, core.TableISchemaHash)
	}
}

// Fingerprint must be sensitive to order and to name boundaries.
func TestFingerprintDistinguishesSchemas(t *testing.T) {
	a := features.Fingerprint([]string{"alpha", "beta"})
	if b := features.Fingerprint([]string{"beta", "alpha"}); a == b {
		t.Error("reordering names did not change the fingerprint")
	}
	if b := features.Fingerprint([]string{"alphabeta"}); a == b {
		t.Error("joining names did not change the fingerprint")
	}
	if b := features.Fingerprint([]string{"alpha", "beta", "gamma"}); a == b {
		t.Error("appending a name did not change the fingerprint")
	}
}
