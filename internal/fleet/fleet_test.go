package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/fleet/hashring"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
)

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers(" r2=http://b:8080, r1=http://a:8080 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].ID != "r1" || peers[1].Base != "http://b:8080" {
		t.Fatalf("parsed %+v", peers)
	}
	if _, err := ParsePeers("r1=http://a,r1=http://b"); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := ParsePeers("=http://a"); err == nil {
		t.Fatal("empty id accepted")
	}
	if peers, err = ParsePeers("  "); err != nil || peers != nil {
		t.Fatalf("blank flag: %v %v", peers, err)
	}
	m := PeerMap([]Peer{{ID: "x", Base: "http://x"}})
	if m["x"] != "http://x" {
		t.Fatalf("PeerMap: %v", m)
	}
}

// trainModel builds a small real model so publishes carry honest
// schema hashes and deterministic envelopes.
func trainModel(t *testing.T, scale float64) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 512, 8192, 131072} {
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

// newReplica stands up one in-process model service.
func newReplica(t *testing.T) (*registry.Registry, *httptest.Server) {
	t.Helper()
	reg := registry.New()
	ts := httptest.NewServer(server.New(reg, server.WithTelemetryDir(t.TempDir())).Handler())
	t.Cleanup(ts.Close)
	return reg, ts
}

func TestSyncerConvergesVersionAndETag(t *testing.T) {
	regA, tsA := newReplica(t)
	regB, tsB := newReplica(t)

	// v1 everywhere, then v2 only on A: B must pull it with the version
	// and content ETag intact (delta distribution, not re-publication).
	m1 := trainModel(t, 1)
	if _, err := regA.Publish("lulesh/policy", m1); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Publish("lulesh/policy", m1); err != nil {
		t.Fatal(err)
	}
	if _, err := regA.Publish("lulesh/policy", trainModel(t, 3)); err != nil {
		t.Fatal(err)
	}

	sB := NewSyncer(regB, []Peer{{ID: "a", Base: tsA.URL}}, SyncerOptions{Logf: t.Logf})
	if n := sB.SyncOnce(); n != 1 {
		t.Fatalf("pulled %d models, want 1 (errors=%d)", n, sB.Errors())
	}
	ea, _ := regA.Get("lulesh/policy")
	eb, ok := regB.Get("lulesh/policy")
	if !ok || eb.Version != ea.Version || eb.ETag != ea.ETag {
		t.Fatalf("no convergence: A v%d %s, B v%d %s", ea.Version, ea.ETag, eb.Version, eb.ETag)
	}
	// A second round is a no-op: nothing newer anywhere.
	if n := sB.SyncOnce(); n != 0 {
		t.Fatalf("steady-state round pulled %d models", n)
	}

	// Syncing A against B must not pull the same version back (no
	// version ping-pong once converged).
	sA := NewSyncer(regA, []Peer{{ID: "b", Base: tsB.URL}}, SyncerOptions{Logf: t.Logf})
	if n := sA.SyncOnce(); n != 0 {
		t.Fatalf("converged fleet still pulled %d models", n)
	}
	if sA.Divergences() != 0 || sB.Divergences() != 0 {
		t.Fatal("converged fleet reported divergence")
	}
}

func TestSyncerCountsDivergenceInsteadOfPulling(t *testing.T) {
	regA, tsA := newReplica(t)
	regB, _ := newReplica(t)

	// Independent publishes of the same version with different content:
	// a split champion. The syncer must flag it, not paper over it.
	if _, err := regA.Publish("lulesh/policy", trainModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Publish("lulesh/policy", trainModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	before, _ := regB.Get("lulesh/policy")

	s := NewSyncer(regB, []Peer{{ID: "a", Base: tsA.URL}}, SyncerOptions{Logf: t.Logf})
	if n := s.SyncOnce(); n != 0 {
		t.Fatalf("diverged same-version model was pulled (%d)", n)
	}
	if s.Divergences() != 1 {
		t.Fatalf("divergences = %d, want 1", s.Divergences())
	}
	after, _ := regB.Get("lulesh/policy")
	if after.ETag != before.ETag {
		t.Fatal("divergence handling rewrote the local model")
	}
}

func TestSyncerToleratesDeadPeer(t *testing.T) {
	regA, tsA := newReplica(t)
	regB, _ := newReplica(t)
	if _, err := regA.Publish("lulesh/policy", trainModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	s := NewSyncer(regB, []Peer{{ID: "dead", Base: dead.URL}, {ID: "a", Base: tsA.URL}},
		SyncerOptions{Logf: t.Logf})
	if n := s.SyncOnce(); n != 1 {
		t.Fatalf("live peer not synced past the dead one (pulled %d)", n)
	}
	if s.Errors() == 0 {
		t.Fatal("dead peer did not count as an error")
	}
}

func TestHealthEvictsAndReadmits(t *testing.T) {
	var sick atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer flaky.Close()
	_, healthy := newReplica(t)

	ring := hashring.New(64)
	ring.Add("flaky")
	ring.Add("steady")
	h := NewHealth([]Peer{{ID: "flaky", Base: flaky.URL}, {ID: "steady", Base: healthy.URL}},
		ring, HealthOptions{FailAfter: 2, Logf: t.Logf})

	if n := h.CheckOnce(); n != 2 {
		t.Fatalf("healthy probe round: %d up, want 2", n)
	}
	sick.Store(true)
	h.CheckOnce() // one failure: below threshold, membership must not churn
	if ring.Len() != 2 || !h.Up("flaky") {
		t.Fatal("single failed probe reshuffled the ring")
	}
	h.CheckOnce() // second consecutive failure: eviction
	if ring.Len() != 1 || h.Up("flaky") {
		t.Fatalf("flaky replica not evicted (ring len %d)", ring.Len())
	}
	if ring.Lookup("anything") != "steady" {
		t.Fatal("keys not rerouted to the survivor")
	}
	if h.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", h.Evictions())
	}
	sick.Store(false)
	h.CheckOnce() // first success readmits immediately
	if ring.Len() != 2 || !h.Up("flaky") {
		t.Fatal("recovered replica not readmitted")
	}
	if h.Probes() != 8 {
		t.Fatalf("probes = %d, want 8", h.Probes())
	}
}

// brokenList is a replica that is alive — /healthz answers — but whose
// model list answers 500 with a JSON error body, which decodes cleanly
// as a list with no models.
func brokenList(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"registry unavailable"}`))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// A peer whose list fails is a failed round trip, not a peer that holds
// nothing: before the syncer read the list through client.List it pulled
// 0 and counted no error.
func TestSyncerCountsFailedListAsError(t *testing.T) {
	reg, _ := newReplica(t)
	var logged []string
	s := NewSyncer(reg, []Peer{{ID: "broken", Base: brokenList(t).URL}}, SyncerOptions{
		Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	if n := s.SyncOnce(); n != 0 {
		t.Fatalf("pulled %d models from a peer with no list", n)
	}
	if s.Errors() != 1 || len(logged) != 1 || !strings.Contains(logged[0], "broken") || !strings.Contains(logged[0], "500") {
		t.Fatalf("errors = %d, log %q; want one error naming the peer and the status", s.Errors(), logged)
	}
}

// A peer whose model GET fails must publish nothing: a 500 with a JSON
// error body is an error naming the status, never bytes handed to
// PublishRaw, and a body over maxSyncModelBytes is an error, not a model
// truncated at the cap. Both went through the syncer's own http.Get
// before it pulled through client.FetchRaw.
func TestSyncerPullPublishesNothingOnABadBody(t *testing.T) {
	for name, body := range map[string]func(w http.ResponseWriter){
		"500": func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"registry unavailable"}`))
		},
		"exceeds": func(w http.ResponseWriter) {
			chunk := []byte(strings.Repeat(" ", 1<<16))
			for n := 0; n <= maxSyncModelBytes; n += len(chunk) {
				w.Write(chunk)
			}
		},
	} {
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/models" {
				w.Write([]byte(`{"models":[{"name":"lulesh/policy","version":3,"etag":"\"x\""}]}`))
				return
			}
			body(w)
		}))
		reg, _ := newReplica(t)
		var logged []string
		s := NewSyncer(reg, []Peer{{ID: "bad", Base: peer.URL}}, SyncerOptions{
			Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
		})
		n := s.SyncOnce()
		peer.Close()
		if n != 0 || reg.Len() != 0 || s.Pulls() != 0 {
			t.Errorf("%s: pulled %d, registry holds %d models; want nothing published", name, n, reg.Len())
		}
		if s.Errors() != 1 || len(logged) != 1 || !strings.Contains(logged[0], "lulesh/policy") || !strings.Contains(logged[0], name) {
			t.Errorf("%s: errors = %d, log %q; want one error naming the model and %q", name, s.Errors(), logged, name)
		}
	}
}

// Health reads /healthz alone: a replica that is up keeps its ring seat
// whatever its model list answers.
func TestHealthIgnoresBrokenList(t *testing.T) {
	ring := hashring.New(64)
	ring.Add("broken")
	h := NewHealth([]Peer{{ID: "broken", Base: brokenList(t).URL}}, ring, HealthOptions{FailAfter: 1})
	if n := h.CheckOnce(); n != 1 || !h.Up("broken") || ring.Len() != 1 {
		t.Fatalf("%d healthy, up=%v, ring %d; want the replica kept", n, h.Up("broken"), ring.Len())
	}
}
