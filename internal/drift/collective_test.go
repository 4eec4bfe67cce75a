package drift

import (
	"testing"

	"apollo/internal/core"
)

// Collective training merges telemetry from clients with different input
// distributions into one window (a telemetry.Cursor over every replica's
// spool). The shift detector must judge that merged window against a
// merged baseline without firing: two clients running steadily at
// opposite ends of the feature space is a bimodal but stationary
// distribution, not drift.

// clientObs samples one client's workload: counts clustered around
// center with a small per-sample spread.
func clientObs(center float64, offsets ...float64) []obs {
	var out []obs
	for _, d := range offsets {
		n := center * (1 + d)
		out = append(out, obs{n: n, seqNS: n * 10, ompNS: 8000 + n*10/8})
	}
	return out
}

// mergedSet unions two clients' observations, the way the merged cursor
// concatenates per-replica spool rows.
func mergedSet(t *testing.T, a, b []obs) *core.LabeledSet {
	t.Helper()
	return labeledSet(t, append(append([]obs(nil), a...), b...))
}

func TestShiftQuietOnMergedStationaryMixture(t *testing.T) {
	// Client A tunes small kernels (~200 indices), client B large ones
	// (~120k): the premise only matters if the two alone would look like
	// a massive shift.
	smallA := clientObs(200, -0.2, -0.1, 0, 0.1, 0.2)
	largeA := clientObs(120000, -0.2, -0.1, 0, 0.1, 0.2)
	base := SnapshotSet(mergedSet(t, smallA, largeA))
	if z, f := Shift(SnapshotSet(labeledSet(t, smallA)), SnapshotSet(labeledSet(t, largeA))); z <= 6 {
		t.Fatalf("premise broken: lone clients only %f apart on %s", z, f)
	}

	// A later window of the same mixture — fresh samples, same two
	// workloads — must stay far below the default threshold of 6.
	smallB := clientObs(200, -0.15, -0.05, 0.05, 0.15, 0.25)
	largeB := clientObs(120000, -0.25, -0.15, 0.05, 0.1, 0.3)
	cur := SnapshotSet(mergedSet(t, smallB, largeB))
	if z, f := Shift(base, cur); z > 1 {
		t.Errorf("stationary merged mixture scored shift %f on %s", z, f)
	}

	// Losing one client IS a distribution change, but the mixture's own
	// standard deviation absorbs it: the merged baseline must not fire
	// the default threshold just because client A went quiet for a
	// window. (Prolonged absence surfaces as merge lag, not drift.)
	if z, _ := Shift(base, SnapshotSet(labeledSet(t, largeB))); z > 6 {
		t.Errorf("one quiet client tripped the merged baseline (z=%f)", z)
	}
}

func TestDetectorQuietOnMergedWindow(t *testing.T) {
	det := NewDetector(Config{MinRows: 4})
	smallA := clientObs(200, -0.2, -0.1, 0, 0.1, 0.2)
	largeA := clientObs(120000, -0.2, -0.1, 0, 0.1, 0.2)
	merged := mergedSet(t, smallA, largeA)
	m := trainOn(t, merged)
	det.SetBaseline(SnapshotSet(merged))

	// Next collective window: same mixture, new samples. The champion
	// trained on the union predicts both regimes, so neither signal may
	// fire.
	next := mergedSet(t,
		clientObs(200, -0.15, -0.05, 0.05, 0.15, 0.25),
		clientObs(120000, -0.25, -0.15, 0.05, 0.1, 0.3))
	if trig := det.Check(m, next); trig != nil {
		t.Fatalf("merged stationary window fired: %v", trig)
	}

	// A genuinely new regime in the merged stream still fires: both
	// clients migrating to ~12M indices is real drift.
	moved := mergedSet(t,
		clientObs(1.2e7, -0.1, 0, 0.1, 0.2, 0.3),
		clientObs(1.5e7, -0.1, 0, 0.1, 0.2, 0.3))
	trig := det.Check(m, moved)
	if trig == nil || trig.Reason != "shift" {
		t.Fatalf("real collective drift missed: %v", trig)
	}
}
