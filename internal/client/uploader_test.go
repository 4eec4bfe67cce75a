package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"apollo/internal/bg"
	"apollo/internal/bg/bgtest"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

func TestBackoffFullJitter(t *testing.T) {
	c := New("http://unused", Options{
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     time.Second,
	})
	// rand=1 gives the full exponential window, capped at MaxBackoff.
	c.retry.rand = func() float64 { return 1 }
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	} {
		if got := c.retry.delay(i); got != want {
			t.Errorf("backoff(%d) = %v, want %v", i, got, want)
		}
	}
	// The shift saturates rather than overflowing into a tiny delay.
	if got := c.retry.delay(63); got != time.Second {
		t.Errorf("backoff(63) = %v, want cap", got)
	}
	// rand=0.5 spreads the delay across the window (full jitter).
	c.retry.rand = func() float64 { return 0.5 }
	if got := c.retry.delay(1); got != 100*time.Millisecond {
		t.Errorf("jittered backoff(1) = %v, want half the 200ms window", got)
	}
}

func TestFetchUnknownModelIsErrNotFound(t *testing.T) {
	ts, _ := newService(t)
	c := New(ts.URL, Options{})
	if _, err := c.Fetch("no/such"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

// fillRecorder records n launches with distinguishable sizes.
func fillRecorder(rec *telemetry.Recorder, n int) {
	k := raja.NewKernel("upload_test", nil)
	for i := 0; i < n; i++ {
		rec.Record(k, raja.NewRange(0, 10+i), raja.Params{Policy: raja.SeqExec}, float64(i))
	}
}

func TestUploaderFlushesBatches(t *testing.T) {
	var mu sync.Mutex
	var got []*telemetry.Batch
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/telemetry" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		var b telemetry.Batch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			t.Error(err)
		}
		mu.Lock()
		got = append(got, &b)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()

	rec := telemetry.NewRecorder(features.TableI(), nil, telemetry.Options{})
	u := NewUploader(New(ts.URL, Options{}), "app/policy", rec, UploaderOptions{})

	if err := u.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty flush posted a batch")
	}
	fillRecorder(rec, 3)
	if err := u.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Model != "app/policy" || len(got[0].Rows) != 3 {
		t.Fatalf("posted %+v", got)
	}
	if err := got[0].Validate(); err != nil {
		t.Errorf("posted batch invalid: %v", err)
	}
	if u.Batches() != 1 || u.Rows() != 3 {
		t.Errorf("counters: batches=%d rows=%d", u.Batches(), u.Rows())
	}
}

// TestUploaderRetainsPendingAcrossOutage drives the uploader through a
// server outage: failed uploads keep the rows, arm the backoff (no
// network attempts inside the window), and the next attempt after
// recovery delivers everything in one batch.
func TestUploaderRetainsPendingAcrossOutage(t *testing.T) {
	var down sync.Map // "down" key present => 503
	var rows int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, bad := down.Load("down"); bad {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		var b telemetry.Batch
		json.NewDecoder(r.Body).Decode(&b)
		mu.Lock()
		rows += len(b.Rows)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{InitialBackoff: time.Minute})
	c.retry.rand = func() float64 { return 1 }
	now := time.Now()
	var nmu sync.Mutex
	c.retry.now = func() time.Time { nmu.Lock(); defer nmu.Unlock(); return now }

	rec := telemetry.NewRecorder(features.TableI(), nil, telemetry.Options{})
	u := NewUploader(c, "app/policy", rec, UploaderOptions{})

	down.Store("down", true)
	fillRecorder(rec, 2)
	if err := u.Flush(); err == nil {
		t.Fatal("flush against a down service reported success")
	}
	// Inside the backoff window: more samples accumulate, no network.
	n := c.Fetches()
	fillRecorder(rec, 3)
	if err := u.Flush(); err != nil {
		t.Fatalf("backoff flush should be silent, got %v", err)
	}
	if c.Fetches() != n {
		t.Error("flush inside backoff window touched the network")
	}

	// Service recovers, window passes: one batch carries all 5 rows.
	down.Delete("down")
	nmu.Lock()
	now = now.Add(2 * time.Minute)
	nmu.Unlock()
	if err := u.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if rows != 5 {
		t.Errorf("service received %d rows, want 5", rows)
	}
	if u.Rows() != 5 {
		t.Errorf("uploader counted %d rows", u.Rows())
	}
}

func TestUploaderBoundsPendingDuringOutage(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{InitialBackoff: time.Nanosecond})
	c.retry.rand = func() float64 { return 0 } // zero delay: every flush attempts
	rec := telemetry.NewRecorder(features.TableI(), nil, telemetry.Options{})
	u := NewUploader(c, "app/policy", rec, UploaderOptions{MaxPending: 4})

	for i := 0; i < 3; i++ {
		fillRecorder(rec, 3)
		u.Flush()
	}
	u.mu.Lock()
	pending := u.pending.Len()
	u.mu.Unlock()
	if pending != 4 {
		t.Errorf("pending = %d, want MaxPending 4", pending)
	}
	if u.Discarded() != 5 {
		t.Errorf("discarded = %d, want 5", u.Discarded())
	}
	// The newest rows survive: num_indices of the last fill (10,11,12).
	u.mu.Lock()
	last := u.pending.At(u.pending.Len()-1, features.NumIndices)
	u.mu.Unlock()
	if last != 12 {
		t.Errorf("newest pending row num_indices = %v, want 12", last)
	}
}

func TestUploaderStartFlushesOnShutdown(t *testing.T) {
	bgtest.NoLeaks(t)
	var rows int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b telemetry.Batch
		json.NewDecoder(r.Body).Decode(&b)
		mu.Lock()
		rows += len(b.Rows)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	defer ts.Close()
	rec := telemetry.NewRecorder(features.TableI(), nil, telemetry.Options{})
	u := NewUploader(New(ts.URL, Options{}), "app/policy", rec, UploaderOptions{})

	// The upload loop as a deployment runs it: an Every that flushes once
	// more when its context ends.
	ctx, cancel := context.WithCancel(context.Background())
	done := bg.New(ctx, nil).Every("telemetry-upload", time.Hour, true, u.Flush) // interval never fires in-test
	fillRecorder(rec, 2)
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if rows != 2 {
		t.Errorf("shutdown flush delivered %d rows, want 2", rows)
	}
}

// PostTelemetry sends the bytes json.Marshal writes for the batch, though
// it encodes the rows itself.
func TestPostTelemetryBodyIsJSONMarshals(t *testing.T) {
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusAccepted)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, Options{})

	frame := dataset.NewFrame("n", "mix<&>", "time_ns")
	frame.AddRow([]float64{256, 0.30000000000000004, 4242.841692428767})
	frame.AddRow([]float64{3660984585, math.Copysign(0, -1), 1e-7})
	frame.AddRow([]float64{12345678901234567, 1e21, -2.5})
	plain := telemetry.NewBatch("app/policy", frame)
	attributed := telemetry.NewBatch(`app/<&>",\"rows\":null`, frame)
	attributed.SourceVersion, attributed.LoopID = 7, `loop-<1>,"rows":null`
	empty := telemetry.NewBatch("app/policy", dataset.NewFrame("n"))
	noRows := *plain
	noRows.Rows = nil
	nullRow := *plain
	nullRow.Rows = [][]float64{{1, 2, 3}, nil, {}}
	for name, b := range map[string]*telemetry.Batch{
		"plain": plain, "attributed": attributed, "empty rows": empty, "nil rows": &noRows, "nil row": &nullRow,
	} {
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PostTelemetry(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: posted\n%s\njson.Marshal writes\n%s", name, got, want)
		}
	}
	fetches := c.Fetches()
	plain.Rows[1][1] = math.NaN()
	if err := c.PostTelemetry(plain); err == nil || c.Fetches() != fetches {
		t.Errorf("a NaN row: error %v after %d requests", err, c.Fetches()-fetches)
	}
}

// blockingService holds every PostTelemetry until release is closed.
type blockingService struct {
	*Client
	entered chan struct{}
	release chan struct{}
}

func (s *blockingService) PostTelemetry(b *telemetry.Batch) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

// TestUploaderFlushWaitsForARacingPost: a Flush that starts while another
// flush holds the drained rows mid-POST returns only after that POST's
// verdict, so a caller that flushed sees every row it recorded before the
// call acknowledged.
func TestUploaderFlushWaitsForARacingPost(t *testing.T) {
	svc := &blockingService{Client: New("http://unused", Options{}), entered: make(chan struct{}, 1), release: make(chan struct{})}
	rec := telemetry.NewRecorder(features.TableI(), nil, telemetry.Options{})
	up := NewUploader(svc, "m", rec, UploaderOptions{})
	fillRecorder(rec, 10)
	first := make(chan error, 1)
	go func() { first <- up.Flush() }()
	<-svc.entered // the background flush drained the rows and is posting them

	second := make(chan error, 1)
	go func() { second <- up.Flush() }()
	select {
	case err := <-second:
		t.Fatalf("Flush returned %v with %d rows acknowledged while 10 were mid-POST", err, up.Rows())
	case <-time.After(50 * time.Millisecond):
	}
	close(svc.release)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if up.Rows() != 10 {
		t.Fatalf("after Flush returned, %d rows acknowledged, want 10", up.Rows())
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}
