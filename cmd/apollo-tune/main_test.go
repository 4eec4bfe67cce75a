package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"apollo/internal/bg/bgtest"
	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/telemetry"
)

func testModel(t *testing.T) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 256, 2048, 16384, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			if pol == raja.SeqExec {
				row[schema.Len()+2] = float64(n) * 10
			} else {
				row[schema.Len()+2] = 8000 + float64(n)*10/8
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// replica starts one in-process model service holding m as lulesh/policy.
func replica(t *testing.T, m *core.Model) *httptest.Server {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Publish("lulesh/policy", m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.WithTelemetryDir(t.TempDir())).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func testFlags(serverSpec string) flags {
	return flags{server: serverSpec, model: "lulesh/policy", app: "LULESH", problem: "sedov",
		size: 8, steps: 5, clients: 1, exploreEvery: 8,
		poll: 100 * time.Millisecond, flush: 50 * time.Millisecond, noise: 0.05, seed: 1}
}

// One client against one server, as the loop and flight smokes run it:
// decisions are made, rows reach the spool, and the done line carries
// every field the smokes parse.
func TestTuneOneClientEndToEnd(t *testing.T) {
	bgtest.NoLeaks(t)
	ts := replica(t, testModel(t))
	f := testFlags(ts.URL)
	f.debugAddr = "127.0.0.1:0"
	var out strings.Builder
	sum, err := run(f, &out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.clients != 1 || sum.steps != 5 || sum.decisions == 0 || sum.uploadedRows == 0 || sum.flightRecords == 0 {
		t.Errorf("no traffic recorded: %+v", sum)
	}
	if sum.refreshErrors != 0 || sum.uploadErrors != 0 || sum.exhausted != 0 {
		t.Errorf("a healthy server failed the client: %+v", sum)
	}
	var done string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "apollo-tune: done ") {
			done = line
		}
	}
	for _, field := range []string{" decisions=", " explored=", " explore_share=", " flight_records=",
		" uploaded_rows=", " refresh_errors=0 ", " upload_errors=0"} {
		if !strings.Contains(done, field) {
			t.Errorf("done line lacks %q:\n%s", field, out.String())
		}
	}
}

// TestHarnessEndToEnd runs a tiny fleet: two clients against three
// in-process replicas, with the first replica killed mid-run. No refresh
// or upload may fail, no request may exhaust the ring, and the summary
// tallies must move.
func TestHarnessEndToEnd(t *testing.T) {
	bgtest.NoLeaks(t)
	m := testModel(t)
	var spec []string
	var victim *httptest.Server
	for _, id := range []string{"r1", "r2", "r3"} {
		ts := replica(t, m)
		if victim == nil {
			victim = ts
		}
		spec = append(spec, id+"="+ts.URL)
	}

	killed := time.AfterFunc(300*time.Millisecond, victim.Close)
	defer killed.Stop()
	f := testFlags(strings.Join(spec, ","))
	f.clients, f.duration = 2, time.Second
	var out strings.Builder
	sum, err := run(f, &out)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(strings.TrimSpace(out.String()))
	if sum.refreshErrors != 0 || sum.uploadErrors != 0 || sum.exhausted != 0 {
		t.Errorf("the replica kill reached a client: refresh_errors=%d upload_errors=%d exhausted=%d",
			sum.refreshErrors, sum.uploadErrors, sum.exhausted)
	}
	if sum.clients != 2 || sum.decisions == 0 || sum.uploadedRows == 0 {
		t.Errorf("no traffic recorded: %+v", sum)
	}
}

func TestHarnessRejectsBadFlags(t *testing.T) {
	for name, edit := range map[string]func(*flags){
		"missing -server":    func(f *flags) { f.server = "" },
		"malformed -server":  func(f *flags) { f.server = "r1=" },
		"missing -model":     func(f *flags) { f.model = "" },
		"unknown app":        func(f *flags) { f.app = "NoSuchApp" },
		"no clients":         func(f *flags) { f.clients = 0 },
		"unopenable journal": func(f *flags) { f.loopJournal = "/dev/null/journal" },
	} {
		f := testFlags("http://127.0.0.1:1")
		edit(&f)
		if _, err := run(f, &strings.Builder{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// GET /metrics on the debug listener sums telemetry-ring drops over
// every client's recorder, next to the ring's gauges.
func TestLiveGaugesSumTelemetryRingDrops(t *testing.T) {
	fc, err := client.NewFleet(map[string]string{"r1": "http://127.0.0.1:1"}, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := features.TableI()
	k, iset := raja.NewKernel("k", nil), raja.NewRange(0, 8)
	var deps []*deployment
	for _, launches := range []int{4 + 3, 4 + 2} { // capacity 4: 3 and 2 drops
		rec := telemetry.NewRecorder(schema, nil, telemetry.Options{Capacity: 4})
		for i := 0; i < launches; i++ {
			rec.Record(k, iset, raja.Params{}, 100)
		}
		deps = append(deps, &deployment{fc: fc, rec: rec})
	}
	w := httptest.NewRecorder()
	debugMux(nil, deps).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{"\napollo_telemetry_ring_dropped_total 5\n", "\napollo_fleet_ring_members 1\n"} {
		if w.Code != http.StatusOK || !strings.Contains(body, want) {
			t.Errorf("GET /metrics (%d) lacks %q:\n%s", w.Code, strings.TrimSpace(want), body)
		}
	}
}
