package main

import (
	"context"
	"os"
	"regexp"
	"sort"
	"testing"
)

// loadSpec reads the repository's BENCHMARK.json.
func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

func names(defs []metricDef) []string {
	out := make([]string, 0, len(defs))
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs both passes of the smoke workload and checks what the
// driver relies on: every metric BENCHMARK.json declares is emitted and
// nothing else, names are well formed, the span tree is well formed
// (checked by the run itself and counted as a failed operation), and
// every correctness oracle passes.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	outDir := t.TempDir()
	for _, pass := range []struct {
		trace    bool
		declared []metricDef
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		r := &run{w: smokeWorkload, seed: 1, seconds: smokeSeconds, trace: pass.trace, outDir: outDir}
		if err := r.execute(context.Background()); err != nil {
			t.Fatalf("trace=%v: %v", pass.trace, err)
		}
		if !r.res.Correct || r.res.Ops == 0 {
			t.Errorf("trace=%v: %d of %d operations failed: %v", pass.trace, r.res.FailedOps, r.res.Ops, r.res.Failures)
		}
		var got []string
		for name, s := range r.res.Metrics {
			got = append(got, name)
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q is malformed", name)
			}
			if s.Unit == "" {
				t.Errorf("metric %s has no unit", name)
			}
		}
		sort.Strings(got)
		want := names(pass.declared)
		if len(got) != len(want) {
			t.Errorf("trace=%v: emitted %d metrics, BENCHMARK.json declares %d\nemitted:  %v\ndeclared: %v",
				pass.trace, len(got), len(want), got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("trace=%v: emitted %q where BENCHMARK.json declares %q", pass.trace, got[i], want[i])
			}
		}
		for _, d := range pass.declared {
			if s := r.res.Metrics[d.Name]; s.Unit != d.Unit {
				t.Errorf("metric %s is emitted in %q, declared in %q", d.Name, s.Unit, d.Unit)
			}
		}
		if pass.trace {
			if len(r.res.TraceFiles) != 1 {
				t.Fatalf("traced pass names trace files %v, want one", r.res.TraceFiles)
			}
			if _, err := os.Stat(r.res.TraceFiles[0]); err != nil {
				t.Errorf("traced pass left no trace file: %v", err)
			}
		}
	}
}

// TestSpecMatchesProgram pins the parts of BENCHMARK.json the program
// also knows: the workloads, the run length, and that one benchmark
// directory holds everything.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.Name)
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	var hasSetup bool
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

func TestSpanChecks(t *testing.T) {
	ok := []span{
		{Name: spanLaunch, ID: 1, Parent: -1, Start: 0, End: 100},
		{Name: spanBegin, ID: 1, Parent: 0, Start: 0, End: 30},
		{Name: spanBody, ID: 1, Parent: 0, Start: 30, End: 60},
		{Name: spanEnd, ID: 1, Parent: 0, Start: 50, End: 100}, // overlaps the body
	}
	if err := checkSpans(ok); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
	if self := selfTimes(ok); self[0] != 0 || self[1] != 30 {
		t.Errorf("self times = %v, want the launch fully covered and begin 30", self)
	}
	bad := map[string][]span{
		"child outside parent": {
			{Name: "a", ID: 1, Parent: -1, Start: 10, End: 20},
			{Name: "b", ID: 1, Parent: 0, Start: 5, End: 15},
		},
		"ends before start": {{Name: "a", ID: 1, Parent: -1, Start: 10, End: 5}},
		"parent after child": {
			{Name: "a", ID: 1, Parent: 1, Start: 0, End: 10},
			{Name: "b", ID: 1, Parent: -1, Start: 0, End: 10},
		},
		"id differs from parent": {
			{Name: "a", ID: 1, Parent: -1, Start: 0, End: 10},
			{Name: "b", ID: 2, Parent: 0, Start: 0, End: 10},
		},
		"launch mostly uncovered": {
			{Name: spanLaunch, ID: 1, Parent: -1, Start: 0, End: 100},
			{Name: spanBegin, ID: 1, Parent: 0, Start: 0, End: 50},
		},
	}
	for name, spans := range bad {
		if err := checkSpans(spans); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
