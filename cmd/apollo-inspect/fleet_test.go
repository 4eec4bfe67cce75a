package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
)

func fleetModel(t *testing.T, scale float64) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 2048, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			if pol == raja.SeqExec {
				row[schema.Len()+2] = float64(n) * 10 * scale
			} else {
				row[schema.Len()+2] = 8000 + float64(n)*scale
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

func TestFleetCmdConvergenceVerdict(t *testing.T) {
	regA, regB := registry.New(), registry.New()
	tsA := httptest.NewServer(server.New(regA).Handler())
	defer tsA.Close()
	tsB := httptest.NewServer(server.New(regB).Handler())
	defer tsB.Close()
	spec := "-replicas=a=" + tsA.URL + ",b=" + tsB.URL

	m := fleetModel(t, 1)
	if _, err := regA.Publish("lulesh/policy", m); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Publish("lulesh/policy", m); err != nil {
		t.Fatal(err)
	}
	// Same version, same deterministic envelope: converged.
	if err := runFleetCmd([]string{spec}); err != nil {
		t.Fatalf("converged fleet judged broken: %v", err)
	}

	// Independent different publish on one replica: diverged.
	if _, err := regB.Publish("lulesh/policy", fleetModel(t, 5)); err != nil {
		t.Fatal(err)
	}
	if err := runFleetCmd([]string{spec}); err == nil {
		t.Fatal("diverged fleet judged converged")
	}

	// A dead replica also fails the verdict.
	tsB.Close()
	if err := runFleetCmd([]string{spec}); err == nil {
		t.Fatal("dead replica judged healthy")
	}

	if err := runFleetCmd([]string{"-replicas="}); err == nil {
		t.Fatal("missing -replicas accepted")
	}
}

// A replica that answers /healthz but whose model list answers 500 with a
// JSON error body is reported DOWN with the status — it used to read as
// "up, 0 model(s)" and its models as MISSING.
func TestFleetCmdReportsFailedListAsDown(t *testing.T) {
	reg := registry.New()
	if _, err := reg.Publish("lulesh/policy", fleetModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	good := httptest.NewServer(server.New(reg).Handler())
	defer good.Close()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"registry unavailable"}`))
	}))
	defer broken.Close()

	out, err := captureStdout(t, func() error {
		return runFleetCmd([]string{"-replicas=a=" + good.URL + ",b=" + broken.URL})
	})
	if err == nil || !strings.Contains(err.Error(), "1 unreachable replica(s)") {
		t.Fatalf("verdict = %v\n%s", err, out)
	}
	for _, want := range []string{"DOWN (client: GET /models: 500 Internal Server Error)", "up, 1 model(s)", "converged v1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// models -url lists and fetches through the client: the report for a
// served registry is the report for the same registry on disk.
func TestModelsCmdFromURLMatchesDir(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"lulesh/policy", "ares/policy", "ares/policy"} {
		if _, err := reg.Publish(name, fleetModel(t, float64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(server.New(reg).Handler())
	defer ts.Close()
	fromURL, err := captureStdout(t, func() error { return runModelsCmd([]string{"-url", ts.URL, "-verify", "-vectors", "16"}) })
	if err != nil {
		t.Fatalf("models -url: %v\n%s", err, fromURL)
	}
	fromDir, err := captureStdout(t, func() error { return runModelsCmd([]string{"-dir", dir}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fromURL, fromDir) || !strings.Contains(fromDir, "ares/policy") {
		t.Errorf("-url report does not begin with the -dir report:\n%s\nvs\n%s", fromURL, fromDir)
	}
	ts.Close()
	if err := runModelsCmd([]string{"-url", ts.URL, "-timeout", "200ms"}); err == nil {
		t.Error("a dead service listed models")
	}
}
