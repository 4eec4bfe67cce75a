package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"apollo/internal/bg/bgtest"
	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/metrics"
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

// TestHarnessEndToEnd runs a tiny fleet load: two synthetic clients
// against three in-process replicas, with the second replica killed
// mid-run. No predict may fail and the summary tallies must move.
func TestHarnessEndToEnd(t *testing.T) {
	bgtest.NoLeaks(t)
	m := testModel(t)
	spec := ""
	var victim *httptest.Server
	for _, id := range []string{"r1", "r2", "r3"} {
		reg := registry.New()
		if _, err := reg.Publish("lulesh/policy", m); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg, server.WithTelemetryDir(t.TempDir())).Handler())
		defer ts.Close()
		if victim == nil {
			victim = ts
		}
		if spec != "" {
			spec += ","
		}
		spec += id + "=" + ts.URL
	}

	go func() {
		time.Sleep(300 * time.Millisecond)
		victim.Close()
	}()
	totals, err := run(spec, "lulesh/policy", "LULESH", "sedov", 8, 2, 5, 2,
		8, time.Second, 100*time.Millisecond, 50*time.Millisecond, 50*time.Millisecond,
		0.05, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if totals.failedPredicts != 0 {
		t.Errorf("%d predicts failed through the replica kill", totals.failedPredicts)
	}
	if totals.failedPosts != 0 || totals.exhausted != 0 {
		t.Errorf("telemetry dropped: failed_posts=%d exhausted=%d", totals.failedPosts, totals.exhausted)
	}
	if totals.predicts == 0 || totals.decisions == 0 || totals.rows == 0 {
		t.Errorf("no traffic recorded: %+v", totals)
	}
}

func TestHarnessRejectsBadFlags(t *testing.T) {
	if _, err := run("", "m", "LULESH", "sedov", 8, 1, 1, 1, 8,
		0, time.Second, time.Second, 0, 0, 1, ""); err == nil {
		t.Fatal("missing -replicas accepted")
	}
	if _, err := run("a=http://x", "", "LULESH", "sedov", 8, 1, 1, 1, 8,
		0, time.Second, time.Second, 0, 0, 1, ""); err == nil {
		t.Fatal("missing -model accepted")
	}
	if _, err := run("a=http://x", "m", "NoSuchApp", "sedov", 8, 1, 1, 1, 8,
		0, time.Second, time.Second, 0, 0, 1, ""); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// The -metrics-addr gauges sum telemetry-ring drops over every client's
// recorder, next to the first client's ring gauges.
func TestLiveGaugesSumTelemetryRingDrops(t *testing.T) {
	f, err := client.NewFleet(map[string]string{"r1": "http://127.0.0.1:1"}, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema := features.TableI()
	k, iset := raja.NewKernel("k", nil), raja.NewRange(0, 8)
	var live liveGauges
	for _, launches := range []int{4 + 3, 4 + 2} { // capacity 4: 3 and 2 drops
		rec := telemetry.NewRecorder(schema, nil, telemetry.Options{Capacity: 4})
		for i := 0; i < launches; i++ {
			rec.Record(k, iset, raja.Params{}, 100)
		}
		live.register(f, rec)
	}
	met := metrics.New()
	live.export(met)
	var out strings.Builder
	if err := met.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\napollo_telemetry_ring_dropped_total 5\n") {
		t.Errorf("metrics lack apollo_telemetry_ring_dropped_total 5:\n%s", out.String())
	}
}
