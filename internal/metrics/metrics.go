// Package metrics is a dependency-free Prometheus-text metrics set shared
// by the model-service daemon, the continuous trainer, and embedding
// applications. It lives outside internal/server so a tuner-side process
// can expose counters without linking the whole HTTP service.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a dependency-free Prometheus-text metrics set: labeled
// counters, gauges, and fixed-bucket histograms. Updates from the
// request hot path are lock-free: readers follow an atomically published
// copy-on-write snapshot of the family maps and bump atomics in place.
// A mutex serializes only the cold path that clones and republishes the
// maps when a metric or label value is seen for the first time, so
// steady-state updates never contend and rendering never blocks writers.
type Metrics struct {
	// mu serializes snapshot writers (first sight of a metric or label
	// value); it is never held while rendering or updating a series.
	mu  sync.Mutex
	cur atomic.Pointer[metricsSnapshot]
}

// metricsSnapshot is one immutable published view of every metric
// family. The maps are never mutated after publication — the slow path
// clones and republishes — while the *atomic values inside are shared
// across snapshots and updated in place.
type metricsSnapshot struct {
	counters   map[string]map[string]*atomic.Uint64 // metric -> label value -> count
	gauges     map[string]map[string]*atomic.Int64  // metric -> label value -> value
	counterLbl map[string]string                    // metric -> label name
	gaugeLbl   map[string]string
	histLbl    map[string]string
	help       map[string]string
	hists      map[string]map[string]*histogram // metric -> label value -> histogram
}

// histogram is a fixed-bucket latency histogram (cumulative on export,
// per-bucket internally).
type histogram struct {
	bounds []float64 // upper bounds, ascending
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomic.Uint64 // seconds scaled by 1e9 to stay integral
	total  atomic.Uint64
}

// New returns an empty metrics set.
func New() *Metrics {
	m := &Metrics{}
	m.cur.Store(&metricsSnapshot{
		counters:   map[string]map[string]*atomic.Uint64{},
		gauges:     map[string]map[string]*atomic.Int64{},
		counterLbl: map[string]string{},
		gaugeLbl:   map[string]string{},
		histLbl:    map[string]string{},
		help:       map[string]string{},
		hists:      map[string]map[string]*histogram{},
	})
	return m
}

// CounterAdd adds delta to the counter's series for the label value.
// label may be "" for an unlabeled counter.
//
//apollo:hotpath
func (m *Metrics) CounterAdd(metric, labelName, labelValue, help string, delta uint64) {
	if series, ok := m.cur.Load().counters[metric]; ok {
		if c, ok := series[labelValue]; ok {
			c.Add(delta)
			return
		}
	}
	m.counterSeriesSlow(metric, labelName, labelValue, help).Add(delta)
}

// counterSeriesSlow creates the counter series on first sight of a
// metric or label value, cloning and republishing the snapshot.
//
//apollo:coldpath first sight of a metric/label value; amortized to zero at steady state
func (m *Metrics) counterSeriesSlow(metric, labelName, labelValue, help string) *atomic.Uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.cur.Load()
	if series, ok := s.counters[metric]; ok { // re-check under the writer lock
		if c, ok := series[labelValue]; ok {
			return c
		}
	}
	next := s.clone()
	series, ok := next.counters[metric]
	if !ok {
		series = map[string]*atomic.Uint64{}
		next.counterLbl[metric] = labelName
		next.help[metric] = help
	} else {
		series = maps.Clone(series)
	}
	c := &atomic.Uint64{}
	series[labelValue] = c
	next.counters[metric] = series
	m.cur.Store(next)
	return c
}

// GaugeSet sets the gauge's series for the label value.
//
//apollo:hotpath
func (m *Metrics) GaugeSet(metric, labelName, labelValue, help string, value int64) {
	if series, ok := m.cur.Load().gauges[metric]; ok {
		if g, ok := series[labelValue]; ok {
			g.Store(value)
			return
		}
	}
	m.gaugeSeriesSlow(metric, labelName, labelValue, help).Store(value)
}

//apollo:coldpath first sight of a metric/label value; amortized to zero at steady state
func (m *Metrics) gaugeSeriesSlow(metric, labelName, labelValue, help string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.cur.Load()
	if series, ok := s.gauges[metric]; ok {
		if g, ok := series[labelValue]; ok {
			return g
		}
	}
	next := s.clone()
	series, ok := next.gauges[metric]
	if !ok {
		series = map[string]*atomic.Int64{}
		next.gaugeLbl[metric] = labelName
		next.help[metric] = help
	} else {
		series = maps.Clone(series)
	}
	g := &atomic.Int64{}
	series[labelValue] = g
	next.gauges[metric] = series
	m.cur.Store(next)
	return g
}

// DefaultLatencyBuckets are the histogram bounds in seconds, spanning
// sub-microsecond tree decisions to slow remote calls.
var DefaultLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5,
}

// Observe records one observation (in seconds) into the unlabeled
// histogram, creating it with DefaultLatencyBuckets on first use.
//
//apollo:hotpath
func (m *Metrics) Observe(metric, help string, seconds float64) {
	m.ObserveLabeled(metric, "", "", help, seconds)
}

// ObserveLabeled records one observation (in seconds) into the
// histogram's series for the label value, mirroring CounterAdd: the
// steady-state path is a lock-free lookup in the published snapshot,
// and only the first sight of a metric or label value takes the writer
// lock. labelName/labelValue may be "" for an unlabeled histogram.
//
//apollo:hotpath
func (m *Metrics) ObserveLabeled(metric, labelName, labelValue, help string, seconds float64) {
	if series, ok := m.cur.Load().hists[metric]; ok {
		if h, ok := series[labelValue]; ok {
			h.record(seconds)
			return
		}
	}
	m.histSlow(metric, labelName, labelValue, help).record(seconds)
}

//apollo:coldpath first sight of a histogram/label value; amortized to zero at steady state
func (m *Metrics) histSlow(metric, labelName, labelValue, help string) *histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.cur.Load()
	if series, ok := s.hists[metric]; ok {
		if h, ok := series[labelValue]; ok {
			return h
		}
	}
	next := s.clone()
	series, ok := next.hists[metric]
	if !ok {
		series = map[string]*histogram{}
		next.histLbl[metric] = labelName
		next.help[metric] = help
	} else {
		series = maps.Clone(series)
	}
	h := &histogram{bounds: DefaultLatencyBuckets, counts: make([]atomic.Uint64, len(DefaultLatencyBuckets))}
	series[labelValue] = h
	next.hists[metric] = series
	m.cur.Store(next)
	return h
}

//apollo:hotpath
func (h *histogram) record(seconds float64) {
	i := sort.SearchFloat64s(h.bounds, seconds)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	if seconds > 0 && !math.IsInf(seconds, 0) && !math.IsNaN(seconds) {
		h.sum.Add(uint64(seconds * 1e9))
	}
	h.total.Add(1)
}

// clone shallow-copies every family map so a writer can extend one
// without disturbing published readers. Inner series maps are shared:
// they are themselves copy-on-write and never mutated after publication.
func (s *metricsSnapshot) clone() *metricsSnapshot {
	return &metricsSnapshot{
		counters:   maps.Clone(s.counters),
		gauges:     maps.Clone(s.gauges),
		counterLbl: maps.Clone(s.counterLbl),
		gaugeLbl:   maps.Clone(s.gaugeLbl),
		histLbl:    maps.Clone(s.histLbl),
		help:       maps.Clone(s.help),
		hists:      maps.Clone(s.hists),
	}
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered. It reads one
// published snapshot and holds no lock, so a slow scraper never stalls
// the request path.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	s := m.cur.Load()
	var names []string
	for n := range s.counters {
		names = append(names, n)
	}
	for n := range s.gauges {
		names = append(names, n)
	}
	for n := range s.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if help := s.help[n]; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, help); err != nil {
				return err
			}
		}
		switch {
		case s.counters[n] != nil:
			fmt.Fprintf(w, "# TYPE %s counter\n", n)
			if err := writeSeries(w, n, s.counterLbl[n], s.counters[n], func(c *atomic.Uint64) string {
				return strconv.FormatUint(c.Load(), 10)
			}); err != nil {
				return err
			}
		case s.gauges[n] != nil:
			fmt.Fprintf(w, "# TYPE %s gauge\n", n)
			if err := writeSeries(w, n, s.gaugeLbl[n], s.gauges[n], func(g *atomic.Int64) string {
				return strconv.FormatInt(g.Load(), 10)
			}); err != nil {
				return err
			}
		default:
			fmt.Fprintf(w, "# TYPE %s histogram\n", n)
			if err := writeHistFamily(w, n, s.histLbl[n], s.hists[n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteError counts a failed response write under its handler's name. By
// the time a body write fails the client has hung up mid-response, so
// there is nobody left to answer; the counter is the error's sink.
func (m *Metrics) WriteError(handler string, err error) {
	if err != nil {
		m.CounterAdd("apollo_response_write_errors_total", "handler", handler,
			"Response bodies that failed to write (client gone mid-response).", 1)
	}
}

// Handler returns the /metrics endpoint over m. collect (optional)
// refreshes scrape-time gauges before the set is rendered.
func Handler(m *Metrics, collect func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if collect != nil {
			collect()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WriteError("metrics", m.WritePrometheus(w))
	})
}

// writeHistFamily renders one histogram family, label values sorted.
// An unlabeled series ("" label name or value) renders the classic
// bare _bucket/_sum/_count lines; labeled series carry the label pair
// on every line, with le last as Prometheus clients expect.
func writeHistFamily(w io.Writer, metric, label string, series map[string]*histogram) error {
	var keys []string
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := series[k]
		pre := ""
		if label != "" && k != "" {
			pre = formatLabels(label, k) + ","
		}
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", metric, pre, formatBound(b), cum)
		}
		cum += h.inf.Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", metric, pre, cum)
		if pre == "" {
			fmt.Fprintf(w, "%s_sum %g\n", metric, float64(h.sum.Load())/1e9)
			if _, err := fmt.Fprintf(w, "%s_count %d\n", metric, h.total.Load()); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "%s_sum{%s} %g\n", metric, formatLabels(label, k), float64(h.sum.Load())/1e9)
		if _, err := fmt.Fprintf(w, "%s_count{%s} %d\n", metric, formatLabels(label, k), h.total.Load()); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries renders one labeled metric family, label values sorted.
func writeSeries[T any](w io.Writer, metric, label string, series map[string]*T, render func(*T) string) error {
	var keys []string
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var err error
		if label == "" || k == "" {
			_, err = fmt.Fprintf(w, "%s %s\n", metric, render(series[k]))
		} else {
			_, err = fmt.Fprintf(w, "%s{%s} %s\n", metric, formatLabels(label, k), render(series[k]))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// formatLabels renders one series' label pairs. A plain label name
// yields the single pair `name="value"`. A comma-separated label name
// (an info-series like "model,version,loop") zips with the
// comma-separated value into one pair per part, which is how
// multi-dimensional identity series (apollo_model_lineage) ride on the
// single-label family maps. A part-count mismatch falls back to one
// pair so a malformed value still renders scrapeably.
func formatLabels(label, value string) string {
	if !strings.Contains(label, ",") {
		return fmt.Sprintf("%s=%q", label, value)
	}
	names := strings.Split(label, ",")
	values := strings.Split(value, ",")
	if len(names) != len(values) {
		return fmt.Sprintf("%s=%q", names[0], value)
	}
	parts := make([]string, len(names))
	for i := range names {
		parts[i] = fmt.Sprintf("%s=%q", names[i], values[i])
	}
	return strings.Join(parts, ",")
}

// formatBound renders a bucket bound the way Prometheus clients expect.
func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }
