package main

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"apollo/internal/bg/bgtest"
	"apollo/internal/core"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/telemetry"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestTraindDebugEndpoints boots the daemon against an empty spool (a
// clean no-op loop) with a loop journal and exercises the debug
// listener: the loop endpoint serves the daemon's apollo-loop-v1
// capture, pprof is live, and the flight endpoints answer 404 — the
// daemon keeps no flight recorder, so its mux does not mount them.
func TestTraindDebugEndpoints(t *testing.T) {
	bgtest.NoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	debugAddrs := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, daemonConfig{
			serverURL:   "http://127.0.0.1:1",
			spool:       t.TempDir(),
			model:       "loop/policy",
			param:       "execution_policy",
			interval:    10 * time.Millisecond,
			debugAddr:   "127.0.0.1:0",
			loopJournal: t.TempDir(),
			debugReady:  func(a net.Addr) { debugAddrs <- a },
		})
	}()
	var debugBase string
	select {
	case a := <-debugAddrs:
		debugBase = "http://" + a.String()
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("debug listener never became ready")
	}

	resp, err := http.Get(debugBase + "/debug/apollo/loop")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("loop endpoint: %v %v", resp, err)
	}
	var loop struct {
		Format string `json:"format"`
		Actor  string `json:"actor"`
	}
	err = json.NewDecoder(resp.Body).Decode(&loop)
	resp.Body.Close()
	if err != nil || loop.Format != "apollo-loop-v1" || loop.Actor != "traind" {
		t.Fatalf("loop capture: %+v (%v)", loop, err)
	}
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/metrics":             http.StatusOK,
		"/debug/apollo/flight": http.StatusNotFound,
		"/debug/apollo/trace":  http.StatusNotFound,
	} {
		resp, err = http.Get(debugBase + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestTraindRequiresModel(t *testing.T) {
	err := run(context.Background(), daemonConfig{
		serverURL: "http://127.0.0.1:1", spool: t.TempDir(), param: "execution_policy",
		interval: time.Second, once: true,
	})
	if err == nil {
		t.Fatal("missing -model accepted")
	}
}

// TestTraindCollectiveFlags checks the fleet plumbing end to end in one
// -once step: two replica spools merge into the training window and the
// bootstrap publishes to the target service.
func TestTraindCollectiveFlags(t *testing.T) {
	reg := registry.New()
	ts := httptest.NewServer(server.New(reg).Handler())
	defer ts.Close()

	rootA, rootB := t.TempDir(), t.TempDir()
	fillSpool(t, filepath.Join(rootA, "loop/policy"), []float64{32, 256, 2048})
	fillSpool(t, filepath.Join(rootB, "loop/policy"), []float64{16384, 131072})

	cfg := daemonConfig{
		serverURL: ts.URL,
		spool:     "a=" + rootA + ",b=" + rootB,
		replicas:  "a=" + ts.URL,
		model:     "loop/policy", param: "execution_policy",
		interval: time.Second, once: true,
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	e, ok := reg.Get("loop/policy")
	if !ok || e.Version != 1 {
		t.Fatalf("collective bootstrap did not publish: %+v ok=%v", e, ok)
	}
	// Neither spool alone holds the full crossover window; the model only
	// learns the small-kernel seq choice from the union.
	proj := e.Model.NewProjector(features.TableI())
	x := make([]float64, features.TableI().Len())
	x[features.TableI().Index(features.NumIndices)] = 64
	if proj.Predict(x) != int(raja.SeqExec) {
		t.Error("collective model picks omp for 64 indices")
	}
}

// fillSpool writes crossover telemetry (seq wins small, omp wins large)
// for the given index counts.
func fillSpool(t *testing.T, dir string, ns []float64) {
	t.Helper()
	sp, err := telemetry.OpenSpool(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	schema := features.TableI()
	cols := core.RecordColumns(schema)
	ni := schema.Index(features.NumIndices)
	var rows [][]float64
	for _, n := range ns {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, len(cols))
			row[ni] = n
			row[len(cols)-3] = float64(pol)
			if pol == raja.SeqExec {
				row[len(cols)-1] = n * 10
			} else {
				row[len(cols)-1] = 8000 + n*10/8
			}
			rows = append(rows, row)
		}
	}
	if err := sp.Append(cols, rows); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// freeAddr returns a loopback address nothing listens on at the moment.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestTraindOnceStopsItsListenersAndJournal: a -once run with every
// listener and the journal on returns when its step is done. It used to
// wait for a signal: the journal flusher was joined before anything had
// cancelled it.
func TestTraindOnceStopsItsListenersAndJournal(t *testing.T) {
	bgtest.NoLeaks(t)
	journal := t.TempDir()
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), daemonConfig{
			serverURL: "http://127.0.0.1:1", spool: t.TempDir(), model: "loop/policy", param: "execution_policy",
			interval: time.Second, once: true, loopJournal: journal,
			debugAddr: "127.0.0.1:0",
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a -once run with -loop-journal never returned")
	}
	if b, err := os.ReadFile(filepath.Join(journal, "loop-traind", "seg-00000001.jsonl")); err != nil || !strings.Contains(string(b), `"actor":"traind"`) {
		t.Fatalf("journal after the run: %q, %v", b, err)
	}
}

// TestTraindCountsFailedSteps: a step that fails does not stop the
// daemon; the error goes to the one sink, which counts it by loop name on
// the /metrics of the debug listener, beside the spool's failed reads.
func TestTraindCountsFailedSteps(t *testing.T) {
	bgtest.NoLeaks(t)
	spool := t.TempDir()
	seg := filepath.Join(spool, "loop", "policy", "seg-00000001.jsonl")
	if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, []byte("not a segment header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	debugAddr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, daemonConfig{
			serverURL: "http://127.0.0.1:1", spool: spool, model: "loop/policy", param: "execution_policy",
			interval: 5 * time.Millisecond, debugAddr: debugAddr,
		})
	}()
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	counted, failedReads := false, ""
	for deadline := time.Now().Add(10 * time.Second); !counted && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := hc.Get("http://" + debugAddr + "/metrics")
		if err != nil {
			continue // not listening yet
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(body), "\n") {
			if n, ok := strings.CutPrefix(line, `apollo_bg_step_errors_total{loop="step"} `); ok && n != "0" && n != "1" {
				counted = true // it failed, was counted, and ticked again
			}
			if n, ok := strings.CutPrefix(line, "apollo_fleet_merge_errors_total "); ok {
				failedReads = n
			}
		}
	}
	if !counted {
		t.Error(`/metrics never showed apollo_bg_step_errors_total{loop="step"} past 1`)
	}
	// The cursor's counts are exported on a failed step too.
	if failedReads == "" || failedReads == "0" {
		t.Errorf("apollo_fleet_merge_errors_total = %q after failed polls, want > 0", failedReads)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("failed steps must not be fatal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
