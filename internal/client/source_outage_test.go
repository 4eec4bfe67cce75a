package client

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apollo/internal/features"
	"apollo/internal/registry"
	"apollo/internal/server"
)

// TestSourceServesStaleThroughOutageAndSwapsOnce drives a Source through
// a mid-run service outage: the cached model keeps serving (Refresh stays
// clean), the client's backoff bounds network traffic to one probe, and
// when the service comes back with a new version the source swaps exactly
// once — not once per poll.
func TestSourceServesStaleThroughOutageAndSwapsOnce(t *testing.T) {
	reg := registry.New()
	inner := server.New(reg).Handler()
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "upstream gone", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{InitialBackoff: time.Second, MaxBackoff: time.Minute})
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	c.retry.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	c.retry.rand = func() float64 { return 1 } // pin jitter

	if v, err := c.Push("lulesh/policy", testModel(t, true)); err != nil || v != 1 {
		t.Fatalf("push v1: v=%d err=%v", v, err)
	}
	src := NewSource(c, features.TableI(), "lulesh/policy", "")
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	if src.Swaps() != 1 {
		t.Fatalf("swaps after first refresh = %d, want 1", src.Swaps())
	}

	// The service vanishes mid-run. Every poll keeps succeeding on the
	// cached model; only the first one hits the network before backoff
	// arms.
	down.Store(true)
	fetchesBefore := c.Fetches()
	for i := 0; i < 5; i++ {
		if err := src.Refresh(); err != nil {
			t.Fatalf("refresh %d during outage: %v (stale model must keep serving)", i, err)
		}
	}
	if got := c.Fetches() - fetchesBefore; got != 1 {
		t.Errorf("network fetches during outage = %d, want 1 (backoff must gate the rest)", got)
	}
	if src.Projectors().Policy == nil {
		t.Fatal("stale projector dropped during outage")
	}
	if src.Swaps() != 1 {
		t.Fatalf("swaps during outage = %d, want still 1", src.Swaps())
	}

	// A retrain lands while the tuner cannot see the service.
	if _, err := reg.Publish("lulesh/policy", testModel(t, false)); err != nil {
		t.Fatal(err)
	}

	// Recovery: the backoff window expires, the next refresh fetches v2
	// and swaps; the refreshes after it are 304s and must not re-swap.
	down.Store(false)
	advance(2 * time.Second)
	for i := 0; i < 3; i++ {
		if err := src.Refresh(); err != nil {
			t.Fatalf("refresh %d after recovery: %v", i, err)
		}
	}
	if src.Swaps() != 2 {
		t.Fatalf("swaps after recovery = %d, want exactly 2", src.Swaps())
	}
	if got := c.Cached("lulesh/policy"); got == nil || got.Version != 2 {
		t.Fatalf("cached after recovery = %+v, want version 2", got)
	}
}
