package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
)

func trainTestModel(t *testing.T) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{16, 128, 1024, 8192, 65536} {
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

// TestServeEndToEnd boots the daemon on a random port, pushes a model,
// exercises the whole HTTP surface, drops a file into the registry
// directory for the watcher to pick up, and shuts down cleanly.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make(chan net.Addr, 1)
	debugAddrs := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", dir, "", "127.0.0.1:0", "", "", "", 5*time.Millisecond, time.Second,
			func(a net.Addr) { addrs <- a }, func(a net.Addr) { debugAddrs <- a })
	}()
	var base string
	select {
	case a := <-addrs:
		base = "http://" + a.String()
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	var debugBase string
	select {
	case a := <-debugAddrs:
		debugBase = "http://" + a.String()
	case <-time.After(10 * time.Second):
		t.Fatal("debug listener never became ready")
	}

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// Push a model through the client (the apollo-train -push path).
	m := trainTestModel(t)
	c := client.New(base, client.Options{})
	if v, err := c.Push("serve/policy", m); err != nil || v != 1 {
		t.Fatalf("push: v=%d err=%v", v, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "serve", "policy.v1.json")); err != nil {
		t.Fatalf("model not persisted under the registry dir: %v", err)
	}

	// Predict through the HTTP API using the features-map form.
	body := strings.NewReader(`{"model":"serve/policy","features":{"num_indices":16}}`)
	resp, err = http.Post(base+"/predict", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Class int `json:"class"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Class != int(raja.SeqExec) {
		t.Errorf("predict class = %d, want seq", pr.Class)
	}

	// The watcher hot-loads a file dropped into the registry directory.
	dropped, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dropped.v1.json"), dropped, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Fetch("dropped"); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Fetch("dropped"); err != nil {
		t.Fatalf("watcher never served the dropped model: %v", err)
	}

	// Metrics reflect the traffic.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"apollo_http_requests_total",
		"apollo_predictions_total",
		`apollo_model_version{model="serve/policy"} 1`,
		"apollo_model_reloads_total 1",
		"apollo_go_goroutines",
		"apollo_go_heap_alloc_bytes",
		"apollo_go_gc_cycles_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The debug listener serves the flight recorder: every single-vector
	// /predict leaves a decision record, so the one above must be on
	// file, with its trail explained against the model's schema.
	resp, err = http.Get(debugBase + "/debug/apollo/flight")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("flight endpoint: %v %v", resp, err)
	}
	var capture struct {
		Format  string `json:"format"`
		Emitted uint64 `json:"emitted"`
		Sites   []struct {
			Name string `json:"name"`
		} `json:"sites"`
		Records []struct {
			Site      string             `json:"site"`
			Predicted int                `json:"predicted"`
			Features  map[string]float64 `json:"features"`
			Path      []string           `json:"path"`
		} `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&capture); err != nil {
		t.Fatalf("flight endpoint body: %v", err)
	}
	resp.Body.Close()
	if capture.Format != "apollo-flight-v1" || capture.Emitted == 0 {
		t.Fatalf("flight capture header wrong: %+v", capture)
	}
	foundPredict := false
	for _, rec := range capture.Records {
		if rec.Site == "serve/policy" && rec.Predicted == int(raja.SeqExec) &&
			rec.Features["num_indices"] == 16 && len(rec.Path) > 0 {
			foundPredict = true
		}
	}
	if !foundPredict {
		t.Errorf("no flight record for the /predict decision: %+v", capture.Records)
	}

	// Timed trace capture returns valid Chrome trace-event JSON.
	resp, err = http.Get(debugBase + "/debug/apollo/trace?sec=0")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: %v %v", resp, err)
	}
	var traceEvents []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&traceEvents); err != nil {
		t.Fatalf("trace endpoint body not a trace JSON array: %v", err)
	}
	resp.Body.Close()
	if resp, err = http.Get(debugBase + "/debug/apollo/trace?sec=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bogus sec accepted: %d", resp.StatusCode)
		}
	}

	// pprof is live on the debug listener.
	resp, err = http.Get(debugBase + "/debug/pprof/cmdline")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: %v %v", resp, err)
	}
	resp.Body.Close()

	// Clean shutdown on context cancel.
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestServeRejectsBadListenAddr(t *testing.T) {
	err := run(context.Background(), "256.0.0.1:http", t.TempDir(), "", "", "", "", "", 0, time.Second, nil, nil)
	if err == nil {
		t.Fatal("bad listen address accepted")
	}
	_ = fmt.Sprint(err)
}
