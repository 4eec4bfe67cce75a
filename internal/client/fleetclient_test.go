package client

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/features"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/telemetry"
)

// newFleetService spins up n in-process replicas, each with its own
// registry and telemetry spool, and returns the fleet client over them
// plus the per-replica handles for the test to mutate.
func newFleetService(t *testing.T, n int) (*FleetClient, map[string]*httptest.Server, []*registry.Registry) {
	t.Helper()
	replicas := map[string]string{}
	servers := map[string]*httptest.Server{}
	var regs []*registry.Registry
	for i := 0; i < n; i++ {
		reg := registry.New()
		dir, err := os.MkdirTemp("", "fleet-spool-*")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		srv := server.New(reg, server.WithTelemetryDir(dir))
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		id := string(rune('a' + i))
		replicas[id] = ts.URL
		servers[id] = ts
		regs = append(regs, reg)
	}
	f, err := NewFleet(replicas, Options{
		InitialBackoff: time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, servers, regs
}

func TestFleetFetchFailsOverToNextRingMember(t *testing.T) {
	f, servers, regs := newFleetService(t, 3)
	m := testModel(t, false)
	for _, reg := range regs {
		if _, err := reg.Publish("lulesh/policy", m); err != nil {
			t.Fatal(err)
		}
	}
	got, err := f.Fetch("lulesh/policy")
	if err != nil || got == nil {
		t.Fatalf("healthy-fleet fetch: %v", err)
	}
	if f.Failovers() != 0 {
		t.Fatalf("healthy fleet recorded %d failovers", f.Failovers())
	}

	// Kill the key's owner and its first successor; fetches must keep
	// succeeding off the surviving member and the failover counter must
	// move once the dead primary is skipped.
	order := f.prefer("lulesh/policy", nil)
	for _, id := range order[:2] {
		servers[id].Close()
	}
	for i := 0; i < 10; i++ {
		if got, err = f.Fetch("lulesh/policy"); err != nil || got == nil {
			t.Fatalf("fetch %d with 2/3 replicas dead: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond) // let per-replica backoffs expire between tries
	}
	if f.Failovers() == 0 {
		t.Fatal("no failover recorded with the primary dead")
	}
}

// A tuner decides through its Source's projectors, so that is where a
// replica kill must not show: with 2 of 3 replicas dead every Refresh
// succeeds and the installed policy stays in place.
func TestFleetSourceZeroFailuresThroughReplicaKill(t *testing.T) {
	f, servers, regs := newFleetService(t, 3)
	m := testModel(t, false)
	for _, reg := range regs {
		if _, err := reg.Publish("lulesh/policy", m); err != nil {
			t.Fatal(err)
		}
	}
	src := NewSource(f, features.TableI(), "lulesh/policy", "")
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	order := f.prefer("lulesh/policy", nil)
	servers[order[0]].Close()
	servers[order[1]].Close()
	for i := 0; i < 20; i++ {
		if err := src.Refresh(); err != nil {
			t.Fatalf("refresh %d failed during replica kill: %v", i, err)
		}
		if src.Projectors().Policy == nil {
			t.Fatalf("refresh %d left no policy installed", i)
		}
		time.Sleep(2 * time.Millisecond) // let per-replica backoffs expire between tries
	}
	if f.Failovers() == 0 || f.Exhausted() != 0 {
		t.Fatalf("failovers=%d exhausted=%d, want the survivor to answer", f.Failovers(), f.Exhausted())
	}
}

// Behind a FleetClient, which keeps no model cache of its own, an
// uploader stamps each batch with the version its Source installed and
// that version's loop ID.
func TestFleetUploaderStampsSourceVersion(t *testing.T) {
	reg := registry.New()
	api := server.New(reg).Handler()
	var mu sync.Mutex
	var got []telemetry.Batch
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/telemetry" {
			api.ServeHTTP(w, r)
			return
		}
		var b telemetry.Batch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			t.Error(err)
		}
		mu.Lock()
		got = append(got, b)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	t.Cleanup(ts.Close)
	f, err := NewFleet(map[string]string{"a": ts.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource(f, features.TableI(), "app/policy", "")
	rec := telemetry.NewRecorder(features.TableI(), nil, telemetry.Options{})
	up := NewUploader(f, "app/policy", rec, UploaderOptions{Attribution: src.Running})

	for _, lin := range []*core.Lineage{nil, {LoopID: "loop-2", ParentVersion: 1}} {
		if _, err := reg.PublishLineage("app/policy", testModel(t, lin != nil), lin); err != nil {
			t.Fatal(err)
		}
		if err := src.Refresh(); err != nil {
			t.Fatal(err)
		}
		fillRecorder(rec, 2)
		if err := up.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("%d batches posted, want 2", len(got))
	}
	for i, want := range []struct {
		version int
		loop    string
	}{{1, ""}, {2, "loop-2"}} {
		if got[i].SourceVersion != want.version || got[i].LoopID != want.loop {
			t.Errorf("batch %d stamped v%d %q, want v%d %q", i, got[i].SourceVersion, got[i].LoopID, want.version, want.loop)
		}
	}
}

// testBatch records a few launches and wraps the drained frame.
func testBatch(t *testing.T) *telemetry.Batch {
	t.Helper()
	rec := telemetry.NewRecorder(features.TableI(), caliper.New(), telemetry.Options{SampleEvery: 1})
	fillRecorder(rec, 4)
	f := rec.Drain(0)
	if f == nil {
		t.Fatal("recorder drained empty")
	}
	return telemetry.NewBatch("lulesh/policy", f)
}

func TestFleetPostTelemetryFailsOver(t *testing.T) {
	f, servers, _ := newFleetService(t, 3)
	b := testBatch(t)
	if err := f.PostTelemetry(b); err != nil {
		t.Fatalf("healthy-fleet post: %v", err)
	}
	order := f.prefer("lulesh/policy", nil)
	servers[order[0]].Close()
	servers[order[1]].Close()
	if err := f.PostTelemetry(b); err != nil {
		t.Fatalf("post with 2/3 replicas dead: %v", err)
	}
	for _, ts := range servers {
		ts.Close()
	}
	if err := f.PostTelemetry(b); err == nil {
		t.Fatal("post with the whole fleet dead reported success")
	}
	if f.Exhausted() == 0 {
		t.Fatal("whole-fleet outage did not count as exhausted")
	}
}

func TestFleetRingRemovalReroutesWithoutError(t *testing.T) {
	f, _, regs := newFleetService(t, 3)
	m := testModel(t, false)
	for _, reg := range regs {
		if _, err := reg.Publish("lulesh/policy", m); err != nil {
			t.Fatal(err)
		}
	}
	owner := f.Ring().Lookup("lulesh/policy")
	f.Ring().Remove(owner) // health checker took the owner out
	if got := f.Ring().Lookup("lulesh/policy"); got == owner || got == "" {
		t.Fatalf("ring still routes to removed owner (%q -> %q)", owner, got)
	}
	if _, err := f.Fetch("lulesh/policy"); err != nil {
		t.Fatalf("fetch after ring removal: %v", err)
	}
	f.Ring().Add(owner) // recovery restores the member
	if f.Ring().Len() != 3 {
		t.Fatalf("ring has %d members after recovery, want 3", f.Ring().Len())
	}
}
