// Package drift decides when a deployed Apollo model has gone stale.
// The closed loop needs a tripwire, not a dashboard: the continuous
// trainer feeds each window of spooled telemetry through a Detector and
// retrains only when it fires. Two independent signals trip it:
//
//   - Mispredict rate: telemetry labels each observed feature vector
//     with its measured-fastest variant (the exploration samples supply
//     the counterfactual); the rate is the launch-weighted fraction of
//     vectors where the model picks a different variant.
//   - Feature shift: the input distribution moved — per-feature z-score
//     of the window's mean against a baseline snapshot — so the model is
//     being asked about a region it may never have trained on, even if
//     no mispredicts have been observed there yet.
package drift

import (
	"fmt"
	"math"

	"apollo/internal/core"
	"apollo/internal/features"
	"apollo/internal/stats"
)

// Config tunes a Detector; zero values pick defaults.
type Config struct {
	// MinRows is the smallest labeled-vector count worth judging
	// (default 8): tiny windows trip on noise.
	MinRows int
	// MispredictThreshold fires the detector when the launch-weighted
	// mispredict rate exceeds it (default 0.25).
	MispredictThreshold float64
	// ShiftThreshold fires the detector when any feature's mean moves
	// this many baseline standard deviations (default 6).
	ShiftThreshold float64
}

func (c Config) withDefaults() Config {
	if c.MinRows <= 0 {
		c.MinRows = 8
	}
	if c.MispredictThreshold <= 0 {
		c.MispredictThreshold = 0.25
	}
	if c.ShiftThreshold <= 0 {
		c.ShiftThreshold = 6
	}
	return c
}

// Trigger is one retrain decision with its evidence.
type Trigger struct {
	// Reason is "mispredict" or "shift".
	Reason string
	// MispredictRate is the launch-weighted mispredict rate observed.
	MispredictRate float64
	// Shift is the largest per-feature z-score against the baseline and
	// ShiftFeature the feature that produced it.
	Shift        float64
	ShiftFeature string
	// Rows is the number of labeled vectors the decision rests on.
	Rows int
}

func (t *Trigger) String() string {
	return fmt.Sprintf("drift(%s): mispredict=%.3f shift=%.2f(%s) rows=%d",
		t.Reason, t.MispredictRate, t.Shift, t.ShiftFeature, t.Rows)
}

// Detector applies Config to telemetry windows. It is not safe for
// concurrent use; the trainer owns one per model.
type Detector struct {
	cfg      Config
	baseline *Snapshot
}

// NewDetector returns a detector with no baseline yet: the first checked
// window becomes the baseline for feature-shift comparison.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// SetBaseline pins the feature-shift baseline (normally a snapshot of
// the champion's training window).
func (d *Detector) SetBaseline(s *Snapshot) { d.baseline = s }

// Baseline returns the current baseline snapshot (nil before any).
func (d *Detector) Baseline() *Snapshot { return d.baseline }

// Check judges one labeled telemetry window against model m and returns
// a Trigger when retraining is warranted, nil otherwise. set must be
// laid out by a schema containing every model feature. The first window
// a detector sees becomes its shift baseline.
func (d *Detector) Check(m *core.Model, set *core.LabeledSet) *Trigger {
	snap := SnapshotSet(set)
	base := d.baseline
	if base == nil {
		d.baseline = snap
	}
	if set.Len() < d.cfg.MinRows {
		return nil
	}
	rate := MispredictRate(m, set)
	t := &Trigger{MispredictRate: rate, Rows: set.Len()}
	if base != nil {
		t.Shift, t.ShiftFeature = Shift(base, snap)
	}
	switch {
	case rate > d.cfg.MispredictThreshold:
		t.Reason = "mispredict"
	case t.Shift > d.cfg.ShiftThreshold:
		t.Reason = "shift"
	default:
		return nil
	}
	return t
}

// MispredictRate returns the launch-weighted fraction of labeled vectors
// where m disagrees with the observed-fastest variant (0 on an empty
// set). Scoring lives in core (Model.Score): the model's features are
// projected out of the set's schema, so a telemetry layout that is a
// superset of the model's works directly.
func MispredictRate(m *core.Model, set *core.LabeledSet) float64 {
	if sc := m.Score(set); sc.Weight > 0 {
		return sc.Mispredicted / sc.Weight
	}
	return 0
}

// PredictedTimeNS scores a model on labeled telemetry: the launch-
// weighted mean of the measured runtime of whichever variant the model
// picks per vector (core.LabeledSet.TimeOf prices a pick telemetry never
// observed), NaN on an empty set.
func PredictedTimeNS(m *core.Model, set *core.LabeledSet) float64 {
	sc := m.Score(set)
	return sc.PredictedNS / sc.Weight
}

// Snapshot is a per-feature summary (mean and standard deviation) of
// one telemetry window, the reference for shift comparison.
type Snapshot struct {
	Schema *features.Schema
	Mean   []float64
	Std    []float64
	Rows   int
}

// SnapshotSet summarizes a labeled set's feature columns.
func SnapshotSet(set *core.LabeledSet) *Snapshot {
	return snapshot(set.Schema, set.X)
}

func snapshot(schema *features.Schema, rows [][]float64) *Snapshot {
	s := &Snapshot{
		Schema: schema,
		Mean:   make([]float64, schema.Len()),
		Std:    make([]float64, schema.Len()),
		Rows:   len(rows),
	}
	col := make([]float64, len(rows))
	for i := 0; i < schema.Len(); i++ {
		for r, x := range rows {
			col[r] = x[i]
		}
		s.Mean[i] = stats.Mean(col)
		s.Std[i] = stats.StdDev(col)
	}
	return s
}

// Shift returns the largest per-feature z-score of cur's mean against
// base, and the feature that produced it. A feature that was constant in
// the baseline is scored against a floor of 1% of its baseline mean, so
// any real movement still registers without dividing by zero.
func Shift(base, cur *Snapshot) (float64, string) {
	var worst float64
	var feature string
	for i, name := range base.Schema.Names() {
		j := cur.Schema.Index(name)
		if j < 0 {
			continue
		}
		std := base.Std[i]
		if floor := math.Abs(base.Mean[i]) * 0.01; std < floor {
			std = floor
		}
		if std == 0 {
			std = 1e-9
		}
		z := math.Abs(cur.Mean[j]-base.Mean[i]) / std
		if z > worst {
			worst, feature = z, name
		}
	}
	return worst, feature
}
