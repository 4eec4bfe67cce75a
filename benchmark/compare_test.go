package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// synthetic builds a run file of untraced runs of one workload, one run
// per value, reporting the two metrics of testSpec.
func synthetic(latency, rate []float64, failed int64) *runFile {
	rf := newRunFile()
	for i := range latency {
		rf.Runs = append(rf.Runs, runResult{
			Workload: "w", Seed: uint64(i), Correct: failed == 0, Ops: 100, FailedOps: failed,
			Metrics: metrics{
				"latency_ms": {Value: latency[i], Unit: "ms", N: 1},
				"rate":       {Value: rate[i], Unit: "1/s", N: 1},
			},
		})
	}
	return rf
}

var testSpec = &benchmarkSpec{EndToEnd: []metricDef{
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
}}

// steady is ten runs with a run-to-run spread of about 2% of the median.
func steady(centre float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = centre * (1 + 0.01*float64(i%5-2))
	}
	return out
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := steady(100)
	noisy := []float64{60, 140, 75, 125, 90, 110, 100, 65, 135, 100} // spread far above the bound
	cases := []struct {
		name            string
		parentL, childL []float64
		parentR, childR []float64
		failed          int64
		wantL, wantR    verdict
		wantBad         bool
	}{
		{name: "same runs", parentL: base, childL: base, parentR: base, childR: base,
			wantL: unchanged, wantR: unchanged},
		{name: "latency worse by 20%, rate better by 20%", parentL: base, childL: scaled(base, 1.2),
			parentR: base, childR: scaled(base, 1.2), wantL: regressed, wantR: improved, wantBad: true},
		{name: "latency better by 20%, rate worse by 20%", parentL: base, childL: scaled(base, 0.8),
			parentR: base, childR: scaled(base, 0.8), wantL: improved, wantR: regressed, wantBad: true},
		{name: "worse, inside the bound", parentL: base, childL: scaled(base, 1.05),
			parentR: base, childR: scaled(base, 0.95), wantL: unchanged, wantR: unchanged},
		{name: "better, but within the parent's quartiles", parentL: base, childL: scaled(base, 0.995),
			parentR: base, childR: base, wantL: unchanged, wantR: unchanged},
		{name: "too few pairs to claim", parentL: base[:5], childL: scaled(base[:5], 0.5),
			parentR: base[:5], childR: base[:5], wantL: unchanged, wantR: unchanged},
		{name: "parent too noisy to resolve", parentL: noisy, childL: scaled(noisy, 1.02),
			parentR: base, childR: base, wantL: unresolved, wantR: unchanged},
		{name: "noisy parent, every run better", parentL: noisy, childL: scaled(steady(10), 1),
			parentR: base, childR: base, wantL: improved, wantR: unchanged},
		{name: "more failed operations", parentL: base, childL: base, parentR: base, childR: base,
			failed: 3, wantL: unchanged, wantR: unchanged, wantBad: true},
	}
	for _, c := range cases {
		parent := synthetic(c.parentL, c.parentR, 0)
		change := synthetic(c.childL, c.childR, c.failed)
		rows, bad := compareRuns(testSpec, parent, change, io.Discard)
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want 2", c.name, len(rows))
		}
		if rows[0].Verdict != c.wantL || rows[1].Verdict != c.wantR {
			t.Errorf("%s: latency %s, rate %s; want %s, %s", c.name, rows[0].Verdict, rows[1].Verdict, c.wantL, c.wantR)
		}
		if bad != c.wantBad {
			t.Errorf("%s: regression reported = %v, want %v", c.name, bad, c.wantBad)
		}
	}
}

// TestCompareMainExitCodes drives the command-line entry on files.
func TestCompareMainExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := steady(100)
	spec := write("spec.json", testSpec)
	parent := write("parent.json", synthetic(base, base, 0))
	same := write("same.json", synthetic(base, base, 0))
	slow := write("slow.json", synthetic(scaled(base, 1.5), base, 0))
	// The table goes to standard output; keep the test log quiet.
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = stdout
		null.Close()
	}()
	if code := compareMain(spec, []string{parent, same}); code != 0 {
		t.Errorf("identical runs: exit %d, want 0", code)
	}
	if code := compareMain(spec, []string{parent, slow}); code != 1 {
		t.Errorf("regression: exit %d, want 1", code)
	}
	if code := compareMain(spec, []string{parent}); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
	if code := compareMain(spec, []string{parent, filepath.Join(dir, "missing.json")}); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}
