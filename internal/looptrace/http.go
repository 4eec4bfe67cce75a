package looptrace

import (
	"encoding/json"
	"net/http"
)

// Capture is the /debug/apollo/loop response: the tracer's window plus
// its emit count, in the same apollo-loop-v1 shape as a journal, so
// `apollo-inspect loop -url` consumes a live daemon exactly like a
// journal file.
type Capture struct {
	Format  string  `json:"format"`
	Actor   string  `json:"actor"`
	Emitted uint64  `json:"emitted"`
	Events  []Event `json:"events"`
}

// CaptureEvents snapshots the window.
func (t *Tracer) CaptureEvents() *Capture {
	return &Capture{Format: JournalFormatID, Actor: t.actor, Emitted: t.Emitted(), Events: t.Snapshot()}
}

// RegisterDebug installs the loop-trace debug endpoint on mux:
//
//	/debug/apollo/loop  retained loop events as apollo-loop-v1 JSON
//
// The handler only reads the tracer, so it is safe on a live process.
// tr may be nil, in which case the endpoint reports 503.
func RegisterDebug(mux *http.ServeMux, tr *Tracer) {
	mux.HandleFunc("GET /debug/apollo/loop", func(w http.ResponseWriter, req *http.Request) {
		if tr == nil {
			http.Error(w, "loop tracer not enabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tr.CaptureEvents()) //apollo:errok debug endpoint: a client gone mid-response has no receiver for the error
	})
}
