package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syntheticRecords describe one region ("daxpy" at num_indices=1024)
// observed under two variants thanks to exploration: the model keeps
// choosing class 0 (mean 900ns) while the explored class 1 runs in
// 500ns — a misprediction with 80% regret — plus a second region with
// only one variant, which must be skipped as incomparable.
func syntheticRecords() []flightRecord {
	feats := map[string]float64{"num_indices": 1024}
	path := []string{"num_indices (=1024) <= 2048 → left", "leaf"}
	recs := []flightRecord{
		{Site: "daxpy", Policy: 0, Predicted: 0, ObservedNS: 800, Features: feats, Path: path},
		{Site: "daxpy", Policy: 0, Predicted: 0, ObservedNS: 1000, Features: feats, Path: path},
		{Site: "daxpy", Policy: 1, Predicted: 0, Explored: true, ObservedNS: 500, Features: feats, Path: path},
		{Site: "daxpy", Policy: 0, Predicted: 0, ObservedNS: 900,
			Features: map[string]float64{"num_indices": 64},
			Path:     []string{"num_indices (=64) <= 96 → left"}},
	}
	return recs
}

func TestMispredictTable(t *testing.T) {
	rows := mispredictTable(syntheticRecords())
	if len(rows) != 1 {
		t.Fatalf("got %d comparable regions, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.chosen != "class=0" || r.best != "class=1" {
		t.Errorf("chosen=%q best=%q, want class=0 vs class=1", r.chosen, r.best)
	}
	if r.chosenMeanNS != 900 || r.bestMeanNS != 500 {
		t.Errorf("means %g/%g, want 900/500", r.chosenMeanNS, r.bestMeanNS)
	}
	if r.regret != 0.8 {
		t.Errorf("regret %g, want 0.8", r.regret)
	}
	if r.launches != 3 {
		t.Errorf("launches %d, want 3", r.launches)
	}
	if !strings.Contains(r.region, "num_indices=1024") {
		t.Errorf("region key %q lacks the feature snapshot", r.region)
	}
}

func TestMispredictTableAllAgree(t *testing.T) {
	// When exploration confirms the chosen variant is fastest, the row
	// stays but the verdict is "ok": chosen == best.
	recs := []flightRecord{
		{Site: "s", Policy: 0, ObservedNS: 100, Features: map[string]float64{"n": 1}},
		{Site: "s", Policy: 1, Explored: true, ObservedNS: 400, Features: map[string]float64{"n": 1}},
	}
	rows := mispredictTable(recs)
	if len(rows) != 1 || rows[0].chosen != rows[0].best {
		t.Fatalf("want one agreeing row, got %+v", rows)
	}
}

func TestWriteTablesRender(t *testing.T) {
	var tbl, hist strings.Builder
	recs := syntheticRecords()
	writeMispredictTable(&tbl, recs, 20)
	for _, want := range []string{"MISPRED", "class=0", "class=1", "80.0%", "daxpy num_indices=1024"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("misprediction table missing %q:\n%s", want, tbl.String())
		}
	}
	writePathHistogram(&hist, recs, 20)
	if !strings.Contains(hist.String(), "2 distinct paths") {
		t.Errorf("histogram header wrong:\n%s", hist.String())
	}
	if !strings.Contains(hist.String(), "3x daxpy") || !strings.Contains(hist.String(), "num_indices (=1024) <= 2048 → left") {
		t.Errorf("histogram missing dominant path:\n%s", hist.String())
	}
}

func TestFlightCmdReadsCaptureFile(t *testing.T) {
	capture := `{
	  "format": "apollo-flight-v1",
	  "emitted": 3, "dropped": 0,
	  "records": [
	    {"seq":1,"site":"daxpy","policy":0,"observed_ns":800,"features":{"num_indices":1024},"path":["leaf"]},
	    {"seq":2,"site":"daxpy","policy":1,"explored":true,"observed_ns":500,"features":{"num_indices":1024},"path":["leaf"]}
	  ]
	}`
	path := filepath.Join(t.TempDir(), "capture.json")
	if err := os.WriteFile(path, []byte(capture), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFlightCmd([]string{"-in", path}); err != nil {
		t.Fatalf("flight subcommand failed: %v", err)
	}
	if err := runFlightCmd([]string{"-in", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing capture file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"format":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFlightCmd([]string{"-in", bad}); err == nil ||
		!strings.Contains(err.Error(), "apollo-flight-v1") {
		t.Errorf("wrong-format capture accepted: %v", err)
	}
	if err := runFlightCmd(nil); err == nil {
		t.Error("no input accepted")
	}
}

// shrinkReplyCap lowers the live-reply cap for one test.
func shrinkReplyCap(t *testing.T, limit int64) {
	old := maxReplyBytes
	maxReplyBytes = limit
	t.Cleanup(func() { maxReplyBytes = old })
}

// A live endpoint answering more than the cap is an error naming the
// request and the cap, not a capture truncated mid-record.
func TestFlightCmdRejectsOversizeReply(t *testing.T) {
	shrinkReplyCap(t, 1<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"format":"apollo-flight-v1","records":[` + strings.Repeat(" ", 1<<10) + `]}`))
	}))
	defer ts.Close()
	err := runFlightCmd([]string{"-url", ts.URL})
	if err == nil || !strings.Contains(err.Error(), "GET "+ts.URL) || !strings.Contains(err.Error(), "exceeds 1024 bytes") {
		t.Errorf("oversize capture reply: %v", err)
	}
}

// TestFlightCmdDecodesPrePRCapture pins capture compatibility: a
// single-model apollo-flight-v1 capture written when captures still
// embedded compiled-tree layouts per site and raw offset trails per
// record still loads, and the paths its recorder rendered at capture
// time reach the decision-path histogram.
func TestFlightCmdDecodesPrePRCapture(t *testing.T) {
	const golden = "testdata/flight_capture_pr11.json"
	if err := runFlightCmd([]string{"-in", golden}); err != nil {
		t.Fatalf("flight subcommand rejected the pre-PR capture: %v", err)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	c, err := decodeCapture(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Records) != 6 {
		t.Fatalf("golden capture has %d records, want 6", len(c.Records))
	}
	var hist strings.Builder
	writePathHistogram(&hist, c.Records, 20)
	for i := range c.Records {
		path := c.Records[i].Path
		if len(path) == 0 {
			t.Fatalf("golden record %d lacks its rendered path", i)
		}
		if !strings.Contains(hist.String(), strings.Join(path, "\n      ")) {
			t.Errorf("record %d's path %q is not in the histogram:\n%s", i, path, hist.String())
		}
	}
}

// FuzzFlightCapture runs arbitrary bytes through everything
// `apollo-inspect flight` does to a capture — decode, the misprediction
// table, the path histogram — none of which may panic or hang.
func FuzzFlightCapture(f *testing.F) {
	// Small seeds: explored variants of one region with rendered paths,
	// a record of an unnamed site, and records with no features or path.
	f.Add([]byte(`{"format":"apollo-flight-v1","emitted":4,"records":[` +
		`{"seq":1,"site":"daxpy","site_id":"0x1","policy":0,"observed_ns":1000,"features":{"num_indices":50,"stride":1},"path":["num_indices (=50) <= 1280 → left","num_indices (=50) <= 100 → left"]},` +
		`{"seq":2,"site_id":"0x1","policy":1,"explored":true,"observed_ns":500,"features":{"num_indices":50,"stride":1}},` +
		`{"seq":3,"site_id":"0x1","policy":0,"chunk":64,"observed_ns":900,"features":{"num_indices":50,"stride":1},"path":["num_indices (=50) <= 1280 → left"]},` +
		`{"seq":4,"site_id":"0x2","observed_ns":0}]}`))
	f.Add([]byte(`{"format":"apollo-flight-v1","records":[{"site_id":"0x1","policy":1,"explored":true,"observed_ns":3,"features":{"a":2},"path":[""]},{"site_id":"0x1","observed_ns":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCapture(data)
		if err != nil {
			return
		}
		mispredictTable(c.Records)
		writePathHistogram(io.Discard, c.Records, 20)
	})
}

func TestTraceCmdValidates(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(
		`[{"name":"daxpy","cat":"kernel","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
		  {"name":"daxpy decision","cat":"decision","ph":"X","ts":0,"dur":1,"pid":1,"tid":0}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTraceCmd([]string{"-in", good}); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`[{"name":"","ph":"B"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTraceCmd([]string{"-in", bad}); err == nil {
		t.Error("malformed trace accepted")
	}
	notjson := filepath.Join(dir, "not.json")
	if err := os.WriteFile(notjson, []byte(`{"oops":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTraceCmd([]string{"-in", notjson}); err == nil {
		t.Error("non-array trace accepted")
	}
}
