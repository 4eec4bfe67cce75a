package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the ratchet to analyze.
func writeModule(t *testing.T, name string, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"),
		[]byte("module "+name+"\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// cleanBaseline is a committed-baseline stand-in for a module with zero
// diagnostics: the raw -json stream of a clean run is one summary record.
const cleanBaseline = `{"summary":true,"diagnostics":0}` + "\n"

// TestVetDiffRatchet injects a synthetic diagnostic into a module with a
// clean baseline and asserts the ratchet script fails the run — the
// property CI relies on — then checks the converse clean pass.
func TestVetDiffRatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run via scripts/vet_diff.sh")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	baseDir := t.TempDir()
	baseline := filepath.Join(baseDir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(cleanBaseline), 0o644); err != nil {
		t.Fatal(err)
	}

	runWith := func(baseline, module string) (string, error) {
		cmd := exec.Command("bash", "scripts/vet_diff.sh", baseline, module)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	run := func(module string) (string, error) { return runWith(baseline, module) }

	// A timeout-less http.Get is a netguard diagnostic with no waiver:
	// the regression must fail the ratchet.
	bad := writeModule(t, "ratchetbad", `package ratchetbad

import "net/http"

func Fetch(url string) (*http.Response, error) {
	return http.Get(url)
}
`)
	out, err := run(bad)
	if err == nil {
		t.Fatalf("ratchet passed a module with a new diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "NEW diagnostics") || !strings.Contains(out, "netguard") {
		t.Fatalf("regression output does not identify the new diagnostic:\n%s", out)
	}

	// The converse: a clean module against the clean baseline passes.
	good := writeModule(t, "ratchetgood", `package ratchetgood

func Add(a, b int) int { return a + b }
`)
	out, err = run(good)
	if err != nil {
		t.Fatalf("ratchet failed a clean module: %v\n%s", err, out)
	}
	if !strings.Contains(out, "no new diagnostics") {
		t.Fatalf("clean pass missing confirmation line:\n%s", out)
	}

	// The waiver count is ratcheted too: a module with one more live
	// waiver than its baseline fails with zero diagnostics; at the
	// baseline's count it passes.
	waived := writeModule(t, "ratchetwaived", `package ratchetwaived

import "os"

func Drop(name string) {
	_ = os.Remove(name) //apollo:errok best-effort cleanup of a scratch file
}
`)
	out, err = run(waived)
	if err == nil || !strings.Contains(out, "1 live waivers") {
		t.Fatalf("ratchet passed a module with one more live waiver than its baseline (err %v):\n%s", err, out)
	}
	oneWaiver := filepath.Join(baseDir, "one_waiver.json")
	if err := os.WriteFile(oneWaiver, []byte(`{"summary":true,"diagnostics":0,"waivers_used":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err = runWith(oneWaiver, waived); err != nil {
		t.Fatalf("ratchet failed a module at its baseline's waiver count: %v\n%s", err, out)
	}
}
