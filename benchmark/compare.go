package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"apollo/internal/stats"
)

// metricDef is one metric declaration of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is BENCHMARK.json: the contract between this program and
// whoever runs it. -compare takes every metric's direction and bound
// from it, so they are written down once.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// minPairsToClaim is the fewest parent/change pairs a gain may rest on.
const minPairsToClaim = 10

// row is the comparison of one end-to-end metric on one workload.
type row struct {
	Workload, Metric        string
	ParentMedian, ChangeMed float64
	ParentIQR               float64 // distance between the parent's quartiles
	Worsening               float64 // share of the parent's median, positive is worse
	Pairs, Wins             int     // a tie is a pair neither side wins
	Verdict                 verdict
}

// judge applies the benchmark's rules to the runs of one metric on one
// workload, paired in file order.
//
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound.
//   - improved: at least ten pairs, the change wins at least nine tenths
//     of them (ties count for neither side), and the medians are further
//     apart than the parent's own quartiles.
//   - unresolved: neither, but the parent's run-to-run spread is wider
//     than the bound, so "no worse than the bound" cannot be told from
//     noise — unless every run of the change beats every run of the parent.
//   - unchanged: the rest.
func judge(parent, change []float64, def metricDef) row {
	r := row{Metric: def.Name}
	r.ParentMedian, r.ChangeMed = stats.Median(parent), stats.Median(change)
	r.ParentIQR = stats.Percentile(parent, 75) - stats.Percentile(parent, 25)
	sign := 1.0 // multiplies (change - parent) so that positive is worse
	if def.Better == "higher" {
		sign = -1
	}
	r.Worsening = sign * (r.ChangeMed - r.ParentMedian) / math.Abs(r.ParentMedian)
	r.Pairs = len(parent)
	if len(change) < r.Pairs {
		r.Pairs = len(change)
	}
	for i := 0; i < r.Pairs; i++ {
		if sign*(change[i]-parent[i]) < 0 {
			r.Wins++
		}
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case r.Worsening > def.Bound:
		r.Verdict = regressed
	case r.Pairs >= minPairsToClaim && 10*r.Wins >= 9*r.Pairs && r.Worsening < 0 &&
		math.Abs(r.ChangeMed-r.ParentMedian) > r.ParentIQR:
		r.Verdict = improved
	case r.ParentIQR > def.Bound*math.Abs(r.ParentMedian) && !allBetter:
		r.Verdict = unresolved
	default:
		r.Verdict = unchanged
	}
	return r
}

// series collects, per workload and metric, the untraced runs' values in
// file order, and per workload the operation counts.
type series struct {
	values map[string]map[string][]float64
	ops    map[string][2]int64 // attempted, failed
}

func collect(rf *runFile) series {
	s := series{values: map[string]map[string][]float64{}, ops: map[string][2]int64{}}
	for _, res := range rf.Runs {
		o := s.ops[res.Workload]
		o[0] += res.Ops
		o[1] += res.FailedOps
		s.ops[res.Workload] = o
		if res.Trace {
			continue // per-layer metrics carry no bound
		}
		if s.values[res.Workload] == nil {
			s.values[res.Workload] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			s.values[res.Workload][name] = append(s.values[res.Workload][name], v.Value)
		}
	}
	return s
}

// compareRuns judges every (end-to-end metric, workload) the two files
// share and reports whether the change regressed anything: a metric
// beyond its bound, or a higher share of failed operations.
func compareRuns(spec *benchmarkSpec, parent, change *runFile, w io.Writer) (rows []row, bad bool) {
	ps, cs := collect(parent), collect(change)
	var names []string
	for name := range ps.values {
		if cs.values[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-24s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "parent", "change", "worse%", "iqr%", "wins", "verdict")
	for _, wl := range names {
		for _, def := range spec.EndToEnd {
			p, c := ps.values[wl][def.Name], cs.values[wl][def.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			r := judge(p, c, def)
			r.Workload = wl
			rows = append(rows, r)
			bad = bad || r.Verdict == regressed
			fmt.Fprintf(w, "%-12s %-24s %14.6g %14.6g %+8.2f %8.2f %4d/%-2d  %s\n",
				wl, def.Name, r.ParentMedian, r.ChangeMed, 100*r.Worsening,
				100*r.ParentIQR/math.Abs(r.ParentMedian), r.Wins, r.Pairs, r.Verdict)
		}
		po, co := ps.ops[wl], cs.ops[wl]
		// failed/ops compared as cross products, so zero operations is not a division.
		if co[1]*po[0] > po[1]*co[0] {
			bad = true
			fmt.Fprintf(w, "%-12s failed_ops/ops rose from %d/%d to %d/%d  regressed\n", wl, po[1], po[0], co[1], co[0])
		}
	}
	return rows, bad
}

// compareMain is `benchmark -compare parent.json change.json`: exit code
// 1 on a regression, 2 when the inputs cannot be read.
func compareMain(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-spec BENCHMARK.json] -compare parent.json change.json")
		return 2
	}
	var spec benchmarkSpec
	var parent, change runFile
	for _, in := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {args[0], &parent}, {args[1], &change}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if _, bad := compareRuns(&spec, &parent, &change, os.Stdout); bad {
		return 1
	}
	return 0
}
