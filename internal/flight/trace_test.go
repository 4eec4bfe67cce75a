package flight

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"apollo/internal/trace"
)

func TestTraceEventsFromRecords(t *testing.T) {
	r := New(Options{Capacity: 8})
	rec, tok := r.Reserve(7)
	if rec == nil {
		t.Fatal("reservation dropped")
	}
	rec.SetSiteName("daxpy")
	rec.Iterations = 100
	rec.Policy = 1
	rec.Predicted = 1
	rec.ObservedNS = 5000
	rec.PredictedNS = 4000
	rec.FeatureNS = 100
	rec.ModelNS = 50
	r.Commit(tok)
	rec2, tok2 := r.Reserve(7)
	if rec2 == nil {
		t.Fatal("reservation dropped")
	}
	rec2.SetSiteName("daxpy")
	rec2.Iterations = 10
	rec2.Policy = 0
	rec2.ObservedNS = 300
	r.Commit(tok2)

	events := TraceEvents(r.Snapshot())
	// Record 1 has phase timings → execution + decision spans; record 2
	// has none → execution only.
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	exec := events[0]
	if exec.Kernel != "daxpy" || exec.DurationNS != 5000 || exec.Iterations != 100 {
		t.Fatalf("execution span wrong: %+v", exec)
	}
	if exec.Args["predicted_ns"] != "4000" || exec.Args["explored"] != "false" {
		t.Fatalf("execution args wrong: %v", exec.Args)
	}
	dec := events[1]
	if dec.Cat != "decision" || dec.Kernel != "daxpy decision" || dec.DurationNS != 150 {
		t.Fatalf("decision span wrong: %+v", dec)
	}
	// The decision span sits immediately before its execution span.
	if got := dec.StartNS + dec.DurationNS; got != exec.StartNS {
		t.Fatalf("decision ends at %g, execution starts at %g", got, exec.StartNS)
	}
	// Timeline is rebased: nothing starts before 0.
	for _, e := range events {
		if e.StartNS < 0 {
			t.Fatalf("event starts before 0: %+v", e)
		}
	}

	// The converted events export as valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("not valid trace JSON: %v", err)
	}
	if len(decoded) != 3 {
		t.Fatalf("exported %d entries", len(decoded))
	}
}

func TestTraceEventsEmpty(t *testing.T) {
	if events := TraceEvents(nil); events != nil {
		t.Fatalf("empty conversion returned %v", events)
	}
}

func TestTraceEventsUnknownSite(t *testing.T) {
	r := New(Options{Capacity: 8})
	rec, tok := r.Reserve(0xbeef)
	if rec == nil {
		t.Fatal("reservation dropped")
	}
	rec.ObservedNS = 10
	r.Commit(tok)
	events := TraceEvents(r.Snapshot())
	if len(events) != 1 || events[0].Kernel != "site-0xbeef" {
		t.Fatalf("unknown site not named positionally: %+v", events)
	}
}

// TestTraceWindow: /debug/apollo/trace's sec parameter clamps to
// maxTraceCapture before it becomes a Duration, so a huge value cannot
// overflow into a negative window that returns at once and empty, and
// anything but a finite, non-negative number is refused.
func TestTraceWindow(t *testing.T) {
	for _, c := range []struct {
		sec  string
		want time.Duration
		ok   bool
	}{
		{"", time.Second, true},
		{"1", time.Second, true},
		{"0", 0, true},
		{"0.05", 50 * time.Millisecond, true},
		{"301", maxTraceCapture, true},
		{"1e10", maxTraceCapture, true},
		{"-1", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"bogus", 0, false},
	} {
		if d, ok := traceWindow(c.sec); d != c.want || ok != c.ok {
			t.Errorf("traceWindow(%q) = %v, %v; want %v, %v", c.sec, d, ok, c.want, c.ok)
		}
	}
}

// TestDebugTraceEndpoint: the trace endpoint answers a zero-second
// capture as a Chrome trace-event array and refuses a sec traceWindow
// rejects; a mux without a recorder mounts neither flight endpoint (404)
// and still serves pprof.
func TestDebugTraceEndpoint(t *testing.T) {
	on := httptest.NewServer(DebugMux(New(Options{})))
	defer on.Close()
	off := httptest.NewServer(DebugMux(nil))
	defer off.Close()
	for _, c := range []struct {
		base, path string
		want       int
	}{
		{on.URL, "/debug/apollo/trace?sec=0", http.StatusOK},
		{on.URL, "/debug/apollo/trace?sec=bogus", http.StatusBadRequest},
		{on.URL, "/debug/apollo/trace?sec=Inf", http.StatusBadRequest},
		{off.URL, "/debug/apollo/trace?sec=0", http.StatusNotFound},
		{off.URL, "/debug/apollo/flight", http.StatusNotFound},
		{off.URL, "/debug/pprof/cmdline", http.StatusOK},
	} {
		resp, err := http.Get(c.base + c.path)
		if err != nil {
			t.Fatal(err)
		}
		var events []json.RawMessage
		if resp.StatusCode == http.StatusOK && strings.HasPrefix(c.path, "/debug/apollo/") {
			err = json.NewDecoder(resp.Body).Decode(&events)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want || err != nil {
			t.Errorf("GET %s: status %d (%v), want %d", c.path, resp.StatusCode, err, c.want)
		}
	}
}
