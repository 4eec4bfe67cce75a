// Telemetry ingestion: POST /telemetry accepts uploader batches and
// appends them to a per-model durable spool that the continuous trainer
// tails. Ingestion is off unless the daemon was started with a spool
// directory (WithTelemetryDir) — a read-only serving replica then
// answers 503 and clients keep their samples pending.

package server

import (
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"apollo/internal/journal"
	"apollo/internal/looptrace"
	"apollo/internal/telemetry"
)

// Option configures a Server at construction.
type Option func(*Server)

// WithTelemetryDir enables telemetry ingestion, spooling each model's
// samples under dir/<model name>.
func WithTelemetryDir(dir string) Option {
	return func(s *Server) { s.telemetryDir = dir }
}

// WithLoopTrace routes the server's closed-loop events — model publishes
// and attributed telemetry ingests — through tr, correlating them with
// the retrain cycle that produced the model (via envelope lineage and
// batch attribution). A nil tracer leaves loop tracing off.
func WithLoopTrace(tr *looptrace.Tracer) Option {
	return func(s *Server) { s.trace = tr }
}

// spool returns (opening if needed) the spool for model name. Once
// CloseSpools has run none is opened: a new model's first batch is as
// late as a known model's next one.
//
//apollo:lockok spool opening is a once-per-model event and spoolMu exists to serialize exactly it
func (s *Server) spool(name string) (*telemetry.Spool, error) {
	s.spoolMu.Lock()
	defer s.spoolMu.Unlock()
	if sp, ok := s.spools[name]; ok {
		return sp, nil
	}
	if s.spoolsClosed {
		return nil, journal.ErrClosed
	}
	sp, err := telemetry.OpenSpool(filepath.Join(s.telemetryDir, filepath.FromSlash(name)), 0)
	if err != nil {
		return nil, err
	}
	s.spools[name] = sp
	return sp, nil
}

// CloseSpools closes every telemetry spool, for good: a batch that
// arrives later is answered 503, whichever model it is for.
//
//apollo:lockok shutdown path; holding spoolMu keeps late ingests from racing the close
func (s *Server) CloseSpools() error {
	s.spoolMu.Lock()
	defer s.spoolMu.Unlock()
	s.spoolsClosed = true
	var first error
	for _, sp := range s.spools {
		if err := sp.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// rejectTelemetry counts and answers one rejected batch.
func (s *Server) rejectTelemetry(w http.ResponseWriter, status int, reason, format string, args ...any) {
	s.met.CounterAdd("apollo_telemetry_rejected_total", "reason", reason,
		"Telemetry batches rejected, by reason.", 1)
	s.errorJSON(w, status, format, args...)
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if s.telemetryDir == "" {
		s.rejectTelemetry(w, http.StatusServiceUnavailable, "disabled",
			"telemetry ingestion is disabled on this replica")
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	start := time.Now()
	if status, err := readBody(r, &sc.body); err != nil {
		reason := "decode"
		if status == http.StatusRequestEntityTooLarge {
			reason = "too_large"
		}
		s.rejectTelemetry(w, status, reason, "%v", err)
		return
	}
	read := time.Now()
	b := &sc.batch
	if err := telemetry.DecodeBatch(sc.body.Bytes(), b); err != nil {
		reason := "decode"
		if errors.As(err, new(*telemetry.InvalidError)) {
			reason = "invalid"
		}
		s.rejectTelemetry(w, http.StatusBadRequest, reason, "%v", err)
		return
	}
	if strings.Contains(b.Model, "..") || strings.HasPrefix(b.Model, "/") {
		s.rejectTelemetry(w, http.StatusBadRequest, "name", "invalid model name %q", b.Model)
		return
	}
	// When the target model is registered, its feature schema must be a
	// subset of the batch columns — otherwise the spooled rows could
	// never retrain it.
	if e, ok := s.reg.Get(b.Model); ok {
		cols := map[string]bool{}
		for _, c := range b.Columns {
			cols[c] = true
		}
		for _, f := range e.Model.Schema.Names() {
			if !cols[f] {
				s.rejectTelemetry(w, http.StatusBadRequest, "schema",
					"batch columns %v lack model feature %q", b.Columns, f)
				return
			}
		}
	}
	decoded := time.Now()
	status := http.StatusInternalServerError
	sp, err := s.spool(b.Model)
	if err == nil {
		status = http.StatusConflict // past the open, what fails is a batch of another layout
		err = sp.AppendDecoded(b)
	}
	if err != nil {
		reason := "spool"
		if errors.Is(err, journal.ErrClosed) { // shutting down: a read-only replica's answer, the client keeps its rows
			status, reason = http.StatusServiceUnavailable, "closed"
		}
		s.rejectTelemetry(w, status, reason, "%v", err)
		return
	}
	appended := time.Now()
	const stageHelp = "POST /telemetry stage durations of accepted batches: body read, decode with every check, spool append."
	s.met.ObserveLabeled("apollo_ingest_stage_seconds", "stage", "read", stageHelp, read.Sub(start).Seconds())
	s.met.ObserveLabeled("apollo_ingest_stage_seconds", "stage", "decode", stageHelp, decoded.Sub(read).Seconds())
	s.met.ObserveLabeled("apollo_ingest_stage_seconds", "stage", "append", stageHelp, appended.Sub(decoded).Seconds())
	s.met.CounterAdd("apollo_telemetry_batches_total", "model", b.Model,
		"Telemetry batches ingested, by model.", 1)
	s.met.CounterAdd("apollo_telemetry_rows_total", "model", b.Model,
		"Telemetry sample rows ingested, by model.", uint64(b.NumRows))
	// Attribute the spooled rows to the model version (and loop) that
	// produced them; an unattributed batch still traces, just unscoped.
	s.trace.Emit(looptrace.KindIngest, b.Model, b.LoopID,
		looptrace.Fields{Version: int32(b.SourceVersion), Rows: int64(b.NumRows)})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	s.writeJSON(w, "telemetry", map[string]any{"rows": b.NumRows, "spooled": sp.Appended()})
}
