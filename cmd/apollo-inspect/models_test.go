package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/registry"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	io.Copy(&buf, r)
	return buf.String(), ferr
}

func TestModelsCmdFromFileAndDir(t *testing.T) {
	path := savedModel(t)
	out, err := captureStdout(t, func() error {
		return runModelsCmd([]string{"-model", path, "-verify", "-vectors", "64"})
	})
	if err != nil {
		t.Fatalf("models -model: %v\n%s", err, out)
	}
	for _, want := range []string{"flat bytes", "execution_policy", "compiled == interpreted"} {
		if !strings.Contains(out, want) {
			t.Errorf("models output missing %q:\n%s", want, out)
		}
	}

	// Registry directory source: publish the same model, then report.
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("policy", m); err != nil {
		t.Fatal(err)
	}
	out, err = captureStdout(t, func() error {
		return runModelsCmd([]string{"-dir", dir, "-verify"})
	})
	if err != nil {
		t.Fatalf("models -dir: %v\n%s", err, out)
	}
	if !strings.Contains(out, "policy") || !strings.Contains(out, "compiled == interpreted") {
		t.Errorf("dir report wrong:\n%s", out)
	}
}

func TestModelsCmdFlagValidation(t *testing.T) {
	if err := runModelsCmd(nil); err == nil {
		t.Error("no source accepted")
	}
	if err := runModelsCmd([]string{"-dir", "x", "-model", "y"}); err == nil {
		t.Error("two sources accepted")
	}
	if err := runModelsCmd([]string{"-model", "/nonexistent.json"}); err == nil {
		t.Error("missing model file accepted")
	}
}

// TestProbeVectorsCoverBoundaries asserts the corpus probes every split
// threshold at and one ULP around the boundary — the vectors where a
// `<=` versus `<` compilation mistake would surface.
func TestProbeVectorsCoverBoundaries(t *testing.T) {
	path := savedModel(t)
	m, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeVectors(m, 16)
	if len(probes) < 16 {
		t.Fatalf("only %d probes", len(probes))
	}
	if err := verifyCompiled(m, probes); err != nil {
		t.Fatalf("differential verification failed: %v", err)
	}
}

// A /predict answer over the reply cap fails -verify with an error naming
// the request and the cap, not a JSON error from a body cut short.
func TestVerifyLiveRejectsOversizeReply(t *testing.T) {
	shrinkReplyCap(t, 1<<10)
	m, err := core.LoadModel(savedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"classes":[` + strings.Repeat(" ", 1<<10) + `]}`))
	}))
	defer ts.Close()
	_, err = verifyLive(ts.Client(), ts.URL, "lulesh/policy", m, probeVectors(m, 4))
	if err == nil || !strings.Contains(err.Error(), "POST /predict") || !strings.Contains(err.Error(), "exceeds 1024 bytes") {
		t.Errorf("oversize /predict reply: %v", err)
	}
}
