package apollo_test

// The model boundary, seen from outside: a model body that is valid JSON
// in the right formats but contradicts its own header (a tree wider than
// the feature list, a class the parameter does not have, ...) must be
// rejected at every door model bytes come through — PUT /models, the
// registry's directory watcher, and the serving client's fetch — and
// each door must keep serving what it had. The bodies live in
// internal/core/testdata/hostile; core's own tests put the same files
// through the decoder and seed its fuzz target with them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apollo/internal/caliper"
	"apollo/internal/client"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/tuner"
)

// hostileCase is one rejected body under a registry-safe name.
type hostileCase struct {
	name string // e.g. "tree_wider_than_header" or "env-tree_wider_than_header"
	body []byte
}

func hostileCases(t *testing.T) []hostileCase {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("internal", "core", "testdata", "hostile", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no hostile bodies: %v", err)
	}
	var out []hostileCase
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		out = append(out, hostileCase{name, body}, hostileCase{"env-" + name, []byte(fmt.Sprintf(
			`{"format":"apollo-model-envelope-v1","name":"evil","version":2,"schema_hash":"","model":%s}`, body))})
	}
	return out
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// predictVersion asks the service for a decision and returns the model
// version that answered.
func predictVersion(t *testing.T, base, model string) int {
	t.Helper()
	resp, err := http.Post(base+"/predict", "application/json",
		strings.NewReader(fmt.Sprintf(`{"model":%q,"features":{"num_indices":64}}`, model)))
	if err != nil {
		t.Fatalf("predict on %s: %v", model, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict on %s: %s", model, resp.Status)
	}
	var out struct {
		Version int `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Version
}

func TestHostileModelRejectedByPut(t *testing.T) {
	good := trainOmpEverywhereModel(t, features.TableI())
	reg := registry.New()
	ts := httptest.NewServer(server.New(reg).Handler())
	defer ts.Close()
	for _, hc := range hostileCases(t) {
		before, err := reg.Publish(hc.name, good)
		if err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/models/"+hc.name, bytes.NewReader(hc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: PUT: %v", hc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: PUT answered %s, want 400", hc.name, resp.Status)
		}
		if after, _ := reg.Get(hc.name); after != before {
			t.Errorf("%s: registry entry changed to v%d", hc.name, after.Version)
		}
		if v := predictVersion(t, ts.URL, hc.name); v != before.Version {
			t.Errorf("%s: predict answered by v%d, want v%d", hc.name, v, before.Version)
		}
	}
}

func TestHostileModelSkippedByRegistryWatcher(t *testing.T) {
	good := trainOmpEverywhereModel(t, features.TableI())
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	reg.SetLogf(func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	logged := func(file string) (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range logs {
			if strings.Contains(l, filepath.Join(dir, file)+":") {
				n++
			}
		}
		return n
	}
	cases := hostileCases(t)
	for _, hc := range cases {
		if _, err := reg.Publish(hc.name, good); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, hc.name+".v2.json"), hc.body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var reloads atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.Watch(ctx, 2*time.Millisecond, func(n int) { reloads.Add(int64(n)) })
	}()
	defer func() { cancel(); <-done }()

	// A good file dropped after the hostile ones proves a later poll ran
	// over them again: they must have logged on the first, not on both.
	waitFor(t, "watcher to see every hostile file", func() bool {
		for _, hc := range cases {
			if logged(hc.name+".v2.json") == 0 {
				return false
			}
		}
		return true
	})
	data, _ := good.MarshalJSON()
	if err := os.WriteFile(filepath.Join(dir, "late.v1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watcher to load the late good file", func() bool { return reloads.Load() == 1 })

	for _, hc := range cases {
		if n := logged(hc.name + ".v2.json"); n != 1 {
			t.Errorf("%s: %d log lines for one file revision, want 1", hc.name, n)
		}
		if e, ok := reg.Get(hc.name); !ok || e.Version != 1 {
			t.Errorf("%s: registry serves %+v, want the v1 it had", hc.name, e)
		}
	}
}

func TestHostileModelRejectedByClientFetch(t *testing.T) {
	schema := features.TableI()
	reg := registry.New()
	e, err := reg.Publish("policy", trainOmpEverywhereModel(t, schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, hc := range hostileCases(t) {
		// A service that answers the first GET with a good model and
		// every later one with the hostile body under a new ETag.
		var served atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) == 1 {
				w.Header().Set("ETag", e.ETag)
				w.Write(e.Raw)
				return
			}
			w.Header().Set("ETag", `"hostile"`)
			w.Header().Set("X-Apollo-Model-Version", "2")
			w.Write(hc.body)
		}))
		c := client.New(ts.URL, client.Options{InitialBackoff: time.Hour, MaxBackoff: time.Hour})
		src := client.NewSource(c, schema, "policy", "")
		if err := src.Refresh(); err != nil {
			t.Fatalf("%s: first refresh: %v", hc.name, err)
		}
		tn := tuner.NewTuner(schema, caliper.New(), raja.Params{}).UseSource(src)
		k, iset := raja.NewKernel("probe", nil), raja.NewRange(0, 8)
		want, _ := tn.Begin(k, iset)
		prev := c.Cached("policy")

		fetches := c.Fetches()
		got, err := c.Fetch("policy")
		if err != nil || got != prev {
			t.Errorf("%s: Fetch = (%+v, %v), want the previous version kept", hc.name, got, err)
		}
		if c.Fetches() != fetches+1 {
			t.Fatalf("%s: hostile body was never fetched", hc.name)
		}
		// Backoff is armed: the next refresh stays off the network and
		// the tuner keeps deciding on the model it had.
		if err := src.Refresh(); err != nil {
			t.Errorf("%s: refresh after rejection: %v", hc.name, err)
		}
		if c.Fetches() != fetches+1 {
			t.Errorf("%s: rejection did not arm the backoff", hc.name)
		}
		if p, ok := tn.Begin(k, iset); !ok || p != want || src.Swaps() != 1 {
			t.Errorf("%s: Begin = (%+v, %v) after %d swaps, want %+v on the first model", hc.name, p, ok, src.Swaps(), want)
		}

		// With nothing cached, the same body is an error, not a model.
		served.Store(1)
		if got, err := client.New(ts.URL, client.Options{}).Fetch("policy"); err == nil {
			t.Errorf("%s: cold Fetch returned %+v", hc.name, got.Model)
		}
		ts.Close()
	}
}
