package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"apollo/internal/dataset"
	"apollo/internal/metrics"
	"apollo/internal/telemetry"
)

// MergedCursor unions several telemetry spools — one per fleet replica —
// into a single training stream, so the continuous trainer sees the
// whole fleet's observations of a model as one window. This is the
// collective-training data plane: clients upload to whichever replica
// the ring routes them to, each replica spools what it ingested, and the
// trainer tails all the spools at once. Rows merge in sorted source
// order within a poll, which keeps a retrain reproducible from the same
// spool state.
//
// One unreachable or corrupt spool must not starve the fleet: per-source
// errors are counted and retained (LastErr) while the other sources keep
// flowing. Only a poll where every source fails reports an error.
type MergedCursor struct {
	names   []string // sorted source names, parallel to cursors
	cursors []*telemetry.Cursor

	mu        sync.Mutex //apollo:lockrank 18
	lastErr   error
	rows      []uint64    // rows merged per source
	lastYield []time.Time // when each source last produced rows
	errs      uint64
}

// NewMergedCursor tails one spool directory per source (name -> spool
// dir). Names label the metrics and merge-lag report; replica ids are
// the natural choice.
func NewMergedCursor(sources map[string]string) (*MergedCursor, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("fleet: a merged cursor needs at least one source")
	}
	m := &MergedCursor{}
	for name := range sources {
		m.names = append(m.names, name)
	}
	sort.Strings(m.names)
	now := time.Now()
	for _, name := range m.names {
		m.cursors = append(m.cursors, telemetry.NewCursor(sources[name]))
		m.rows = append(m.rows, 0)
		m.lastYield = append(m.lastYield, now)
	}
	return m, nil
}

// Poll reads every source's newly appended rows and returns their union
// (nil when nothing is new anywhere). The first source fixes the column
// layout; a source whose spool disagrees is counted as an error and
// skipped, like an unreachable one.
//
//apollo:lockok m.mu serializes the trainer-cadence poll and its per-source bookkeeping; never on a launch path
func (m *MergedCursor) Poll() (*dataset.Frame, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var merged *dataset.Frame
	var errs []error
	failed := 0
	for i, cur := range m.cursors {
		f, err := cur.Poll()
		if err != nil {
			failed++
			m.errs++
			errs = append(errs, fmt.Errorf("%s: %w", m.names[i], err))
			continue
		}
		if f == nil || f.Len() == 0 {
			continue
		}
		m.rows[i] += uint64(f.Len())
		m.lastYield[i] = time.Now()
		if merged == nil {
			merged = f
			continue
		}
		if !slices.Equal(merged.Cols(), f.Cols()) {
			failed++
			m.errs++
			errs = append(errs, fmt.Errorf("%s: columns %v do not match %v",
				m.names[i], f.Cols(), merged.Cols()))
			continue
		}
		merged.Append(f)
	}
	m.lastErr = errors.Join(errs...)
	if failed == len(m.cursors) {
		return nil, m.lastErr
	}
	return merged, nil
}

// LastErr returns the per-source errors of the most recent poll (nil
// when every source read cleanly).
func (m *MergedCursor) LastErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// SourceRows returns the cumulative rows merged per source.
func (m *MergedCursor) SourceRows() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.names))
	for i, name := range m.names {
		out[name] = m.rows[i]
	}
	return out
}

// MergeLag returns, per source, how long it has been since that source
// last yielded rows — the collective-merge lag. A replica whose clients
// stopped reaching it (or whose spool share went to zero after a ring
// change) shows up here long before its spool is archaeology.
func (m *MergedCursor) MergeLag(now time.Time) map[string]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]time.Duration, len(m.names))
	for i, name := range m.names {
		out[name] = now.Sub(m.lastYield[i])
	}
	return out
}

// ExportMetrics refreshes the collective-merge gauges on met.
func (m *MergedCursor) ExportMetrics(met *metrics.Metrics) {
	m.mu.Lock()
	names := append([]string(nil), m.names...)
	rows := append([]uint64(nil), m.rows...)
	yields := append([]time.Time(nil), m.lastYield...)
	errs := m.errs
	m.mu.Unlock()
	now := time.Now()
	for i, name := range names {
		met.GaugeSet("apollo_fleet_merge_rows_total", "source", name,
			"Telemetry rows merged into the collective window, by source spool.", int64(rows[i]))
		met.GaugeSet("apollo_fleet_merge_lag_seconds", "source", name,
			"Seconds since each source spool last yielded rows.", int64(now.Sub(yields[i]).Seconds()))
	}
	met.GaugeSet("apollo_fleet_merge_errors_total", "", "",
		"Failed per-source polls while merging the collective window.", int64(errs))
}
