package flight

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"apollo/internal/trace"
)

// CaptureTrace records for the given duration (or until ctx is done) and
// returns the window's decisions as trace events: only records emitted
// after the call started are included, so back-to-back captures see
// disjoint windows even though the recorder's retained history overlaps.
func (r *Recorder) CaptureTrace(ctx context.Context, d time.Duration) []trace.Event {
	start := Now()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
	recs := r.Snapshot()
	fresh := recs[:0]
	for i := range recs {
		if recs[i].TimeNS >= start {
			fresh = append(fresh, recs[i])
		}
	}
	return TraceEvents(fresh)
}

// maxTraceCapture caps /debug/apollo/trace?sec=N so a typo cannot hold a
// request handler (and its client connection) open for hours.
const maxTraceCapture = 5 * time.Minute

// traceWindow parses /debug/apollo/trace's sec parameter ("" means one
// second) into the capture window, clamped to maxTraceCapture. ok is
// false for anything but a finite, non-negative number. The clamp runs
// in float: a huge sec converted first would overflow time.Duration into
// a negative window.
func traceWindow(sec string) (d time.Duration, ok bool) {
	v := 1.0
	if sec != "" {
		var err error
		if v, err = strconv.ParseFloat(sec, 64); err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false
		}
	}
	return time.Duration(min(v, maxTraceCapture.Seconds()) * float64(time.Second)), true
}

// RegisterDebug installs the pprof profiler on mux and, given a
// recorder, the flight-recorder debug endpoints:
//
//	/debug/apollo/flight       recent decisions as apollo-flight-v1 JSON
//	/debug/apollo/trace?sec=N  N-second capture as Chrome trace-event JSON
//	/debug/pprof/...           net/http/pprof
//
// The handlers only read the recorder (drains move records into the
// retained window but lose nothing), so the endpoints are safe to expose
// on a live production process — that is the point of a flight recorder.
// A process without a recorder (rec nil) serves pprof alone: the flight
// paths are not mounted and answer 404.
func RegisterDebug(mux *http.ServeMux, rec *Recorder) {
	if rec != nil {
		mux.HandleFunc("GET /debug/apollo/flight", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(rec.Capture()) //apollo:errok debug endpoint: a client gone mid-response has no receiver for the error
		})
		mux.HandleFunc("GET /debug/apollo/trace", func(w http.ResponseWriter, req *http.Request) {
			d, ok := traceWindow(req.URL.Query().Get("sec"))
			if !ok {
				http.Error(w, "bad sec parameter", http.StatusBadRequest)
				return
			}
			events := rec.CaptureTrace(req.Context(), d)
			w.Header().Set("Content-Type", "application/json")
			trace.WriteChromeTrace(w, events) //apollo:errok debug endpoint: a client gone mid-response has no receiver for the error
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// DebugMux returns a mux with RegisterDebug applied — the embeddable
// debug surface a process hangs off its own listener:
//
//	g.Serve("debug", ln, flight.DebugMux(rec)) // g a bg.Group
func DebugMux(rec *Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	RegisterDebug(mux, rec)
	return mux
}
