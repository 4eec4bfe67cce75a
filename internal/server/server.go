// Package server exposes a model registry over HTTP — the Apollo model
// service daemon's core. The API is plain stdlib net/http + JSON:
//
//	PUT  /models/{name}   publish a model (bare model JSON or envelope)
//	GET  /models/{name}   fetch the current envelope (ETag / If-None-Match)
//	GET  /models          list registered models
//	POST /predict         evaluate a model on one vector or a batch
//	POST /telemetry       ingest sampled launch measurements into the
//	                      per-model spool (enabled by WithTelemetryDir)
//	GET  /healthz         liveness
//	GET  /metrics         Prometheus text: requests, predictions, model
//	                      versions, latency histograms
//
// A prediction is one walk of the entry's compiled tree (7–60 ns); there
// is no per-vector memo in front of it — building a memo key costs more
// than the walk. Models arrive validated: PUT bodies and hot-reloaded
// files go through core's decoder, which rejects a tree that
// contradicts its header, so no handler re-checks a model.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"apollo/internal/ctree"
	"apollo/internal/dataset"
	"apollo/internal/looptrace"
	"apollo/internal/metrics"
	"apollo/internal/registry"
	"apollo/internal/telemetry"
)

// maxModelBytes caps request bodies; trained trees are tens of kilobytes.
const maxModelBytes = 16 << 20

// Server wires a registry to HTTP handlers plus a metrics set.
type Server struct {
	reg   *registry.Registry
	met   *metrics.Metrics
	rc    *metrics.RuntimeCollector
	trace *looptrace.Tracer // nil = loop events off
	mux   *http.ServeMux

	// telemetry ingestion (off when telemetryDir is empty). spoolMu
	// nests outside each spool's log mutex (CloseSpools closes the logs
	// while holding it), hence the lower rank.
	telemetryDir string
	spoolMu      sync.Mutex //apollo:lockrank 21
	spools       map[string]*telemetry.Spool
	spoolsClosed bool
}

// New returns a server over reg with a fresh metrics set.
func New(reg *registry.Registry, opts ...Option) *Server {
	s := &Server{
		reg:    reg,
		met:    metrics.New(),
		mux:    http.NewServeMux(),
		spools: make(map[string]*telemetry.Spool),
	}
	s.rc = metrics.NewRuntimeCollector(s.met)
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("PUT /models/{name...}", s.instrument("models_put", s.handlePut))
	s.mux.HandleFunc("GET /models/{name...}", s.instrument("models_get", s.handleGet))
	s.mux.HandleFunc("GET /models", s.instrument("models_list", s.handleList))
	s.mux.HandleFunc("GET /models/{$}", s.instrument("models_list", s.handleList))
	s.mux.HandleFunc("POST /predict", s.instrument("predict", s.handlePredict))
	s.mux.HandleFunc("POST /telemetry", s.instrument("telemetry", s.handleTelemetry))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", metrics.Handler(s.met, s.rc.Collect))
	// Seed version gauges for models loaded from disk at open.
	for _, name := range reg.Names() {
		if e, ok := reg.Get(name); ok {
			s.met.GaugeSet("apollo_model_version", "model", name,
				"Current registry version of each model.", int64(e.Version))
		}
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics set (the registry watcher's
// reload hook feeds it too).
func (s *Server) Metrics() *metrics.Metrics { return s.met }

// NoteReload records watcher hot-reloads and refreshes version gauges.
func (s *Server) NoteReload(n int) {
	s.met.CounterAdd("apollo_model_reloads_total", "", "",
		"Models hot-reloaded from disk by the registry watcher.", uint64(n))
	for _, name := range s.reg.Names() {
		if e, ok := s.reg.Get(name); ok {
			s.met.GaugeSet("apollo_model_version", "model", name,
				"Current registry version of each model.", int64(e.Version))
			s.noteLineage(e)
		}
	}
}

// instrument wraps a handler with the request counter and latency
// histogram.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.CounterAdd("apollo_http_requests_total", "handler", name,
			"HTTP requests served, by handler.", 1)
		h(w, r)
		s.met.Observe("apollo_http_request_duration_seconds",
			"HTTP request latency.", time.Since(start).Seconds())
	}
}

// writeJSON encodes v into the response and counts write failures under
// the given handler label.
func (s *Server) writeJSON(w http.ResponseWriter, where string, v any) {
	s.met.WriteError(where, json.NewEncoder(w).Encode(v))
}

// errorJSON writes a JSON error body with the given status.
func (s *Server) errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	s.writeJSON(w, "error", map[string]string{"error": fmt.Sprintf(format, args...)})
}

// scratch is what one POST /telemetry or POST /predict borrows for its
// body and for what the body decodes into.
type scratch struct {
	body    bytes.Buffer
	batch   telemetry.Decoded
	predict predictBody
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledBytes caps what a pooled scratch holds on to: one a hostile
// body grew past it is dropped, so such bodies cannot pin maxModelBytes
// per P (a batch's lines are no longer than its body).
const maxPooledBytes = 1 << 20

func (sc *scratch) poolable() bool {
	return sc.body.Cap() <= maxPooledBytes && cap(sc.predict.flat) <= maxPooledBytes/8 && cap(sc.predict.vectors) <= maxPooledBytes/24
}

func (sc *scratch) release() {
	if sc.poolable() {
		scratchPool.Put(sc)
	}
}

// readBody reads r's body into buf. A body it refuses comes back as the
// status to answer with: 413 over maxModelBytes, 400 for a failed read.
func readBody(r *http.Request, buf *bytes.Buffer) (status int, err error) {
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxModelBytes+1)); err != nil {
		return http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	if buf.Len() > maxModelBytes {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxModelBytes)
	}
	return http.StatusOK, nil
}

// modelInfo is the JSON summary of one registry entry. Compiled carries
// the publish-time ctree compilation stats (node counts, flat-array
// bytes).
type modelInfo struct {
	Name       string      `json:"name"`
	Version    int         `json:"version"`
	ETag       string      `json:"etag"`
	SchemaHash string      `json:"schema_hash"`
	Parameter  string      `json:"parameter"`
	Features   int         `json:"features"`
	Compiled   ctree.Stats `json:"compiled"`
}

func info(e *registry.Entry) modelInfo {
	return modelInfo{
		Name:       e.Name,
		Version:    e.Version,
		ETag:       e.ETag,
		SchemaHash: e.SchemaHash,
		Parameter:  e.Model.Param.String(),
		Features:   e.Model.Schema.Len(),
		Compiled:   e.Compiled.Stats(),
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var body bytes.Buffer // the registry keeps the bytes: not pooled
	if status, err := readBody(r, &body); err != nil {
		s.errorJSON(w, status, "%v", err)
		return
	}
	e, err := s.reg.PublishRaw(name, body.Bytes())
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.CounterAdd("apollo_model_publishes_total", "model", name,
		"Models published via PUT, by model.", 1)
	s.met.GaugeSet("apollo_model_version", "model", name,
		"Current registry version of each model.", int64(e.Version))
	s.noteLineage(e)
	loop, parent := "", 0
	if e.Lineage != nil {
		loop, parent = e.Lineage.LoopID, e.Lineage.ParentVersion
	}
	s.trace.Emit(looptrace.KindPublish, e.Name, loop,
		looptrace.Fields{Version: int32(e.Version), Parent: int32(parent)})
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", e.ETag)
	w.WriteHeader(http.StatusCreated)
	s.writeJSON(w, "models_put", info(e))
}

// noteLineage publishes the provenance info-series for an entry whose
// envelope carried a lineage block: a constant-1 gauge whose labels say
// which loop produced the version and which version it replaced.
func (s *Server) noteLineage(e *registry.Entry) {
	if e.Lineage == nil {
		return
	}
	s.met.GaugeSet("apollo_model_lineage", "model,version,parent,loop",
		fmt.Sprintf("%s,%d,%d,%s", e.Name, e.Version, e.Lineage.ParentVersion, e.Lineage.LoopID),
		"Model provenance info-series: the loop that trained each published version and the parent it replaced.", 1)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		s.errorJSON(w, http.StatusNotFound, "no model %q", name)
		return
	}
	w.Header().Set("ETag", e.ETag)
	w.Header().Set("X-Apollo-Model-Version", strconv.Itoa(e.Version))
	w.Header().Set("X-Apollo-Schema-Hash", e.SchemaHash)
	if match := r.Header.Get("If-None-Match"); match != "" && match == e.ETag {
		s.met.CounterAdd("apollo_model_not_modified_total", "", "",
			"Conditional model fetches answered 304 Not Modified.", 1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, err := w.Write(e.Raw)
	s.met.WriteError("models_get", err)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	out := make([]modelInfo, 0, len(names))
	for _, n := range names {
		if e, ok := s.reg.Get(n); ok {
			out = append(out, info(e))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, "models_list", map[string]any{"models": out})
}

// predictBody is a decoded POST /predict body. Exactly one of x, batch
// and features must be set (there and not null). Vectors are laid out by
// the model's own schema and scanned straight into flat, one after the
// other; features names them instead, unset features default to 0.
type predictBody struct {
	model    string
	features map[string]float64
	x, batch bool         // the member is set
	rows     dataset.Rows // the shape of x (one row) or of batch
	flat     []float64    // reused by the next request
	vectors  [][]float64  // views of flat, one a vector; reused
}

// decodePredict decodes a POST /predict body into p, reusing its slices.
// It accepts what json.Unmarshal into a struct of the four members
// accepts, with the same values, except a body whose top-level keys are
// not exact-case and unique (dataset.WalkObject) or that has anything but
// whitespace after the object.
func decodePredict(body []byte, p *predictBody) error {
	*p = predictBody{flat: p.flat[:0], vectors: p.vectors[:0]}
	return dataset.WalkObject(body, []dataset.Field{
		{Name: "model", Into: &p.model}, {Name: "features", Into: &p.features}, {Name: "x"}, {Name: "batch"},
	}, func(k, i int) (end int, err error) {
		set := body[i] != 'n' // a null member is an unset one
		if k == 3 {
			var rows dataset.Rows
			if end, rows, err = dataset.ScanRows(body, i, &p.flat, nil); set {
				p.batch, p.rows = true, rows
			}
			return end, err
		}
		if end, err = dataset.Value(body, i); err != nil {
			return 0, err
		}
		x, err := dataset.ParseRow(body[i:end], p.flat)
		if err == nil && set {
			p.x, p.rows = true, dataset.Rows{N: 1, Width: len(x) - len(p.flat)}
			p.flat = x
		}
		return end, err
	})
}

// predictResponse answers both single and batched requests.
type predictResponse struct {
	Model   string   `json:"model"`
	Version int      `json:"version"`
	Class   *int     `json:"class,omitempty"`
	Label   string   `json:"label,omitempty"`
	Classes []int    `json:"classes,omitempty"`
	Labels  []string `json:"labels,omitempty"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	if status, err := readBody(r, &sc.body); err != nil {
		s.errorJSON(w, status, "%v", err)
		return
	}
	req := &sc.predict
	if err := decodePredict(sc.body.Bytes(), req); err != nil {
		s.errorJSON(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	e, ok := s.reg.Get(req.model)
	if !ok {
		s.errorJSON(w, http.StatusNotFound, "no model %q", req.model)
		return
	}
	want := e.Model.Schema.Len()
	single := false
	switch {
	case req.x && !req.batch && req.features == nil:
		single = true
	case req.features != nil && !req.x && !req.batch:
		req.flat = append(req.flat[:0], make([]float64, want)...)
		for name, v := range req.features {
			i := e.Model.Schema.Index(name)
			if i < 0 {
				s.errorJSON(w, http.StatusBadRequest, "model %q has no feature %q (features: %v)",
					req.model, name, e.Model.Schema.Names())
				return
			}
			req.flat[i] = v
		}
		req.rows, single = dataset.Rows{N: 1, Width: want}, true
	case req.batch && !req.x && req.features == nil:
	default:
		s.errorJSON(w, http.StatusBadRequest, "set exactly one of x, batch, or features")
		return
	}
	if i, width, found := req.rows.Mismatch(want); found {
		s.errorJSON(w, http.StatusBadRequest, "vector %d has %d features, model %q wants %d",
			i, width, req.model, want)
		return
	}
	for i := 0; i < req.rows.N; i++ {
		req.vectors = append(req.vectors, req.flat[i*want:(i+1)*want])
	}
	vectors := req.vectors
	resp := predictResponse{Model: e.Name, Version: e.Version}
	if !single && len(vectors) > 1 {
		resp.Classes = s.predictBatch(e, vectors)
	} else {
		for _, x := range vectors {
			resp.Classes = append(resp.Classes, e.Compiled.Predict(x))
		}
	}
	resp.Labels = make([]string, len(resp.Classes))
	for i, c := range resp.Classes {
		resp.Labels[i] = e.Model.Param.ClassName(c)
	}
	s.met.CounterAdd("apollo_predictions_total", "", "",
		"Feature vectors evaluated by POST /predict.", uint64(len(vectors)))
	if single {
		resp.Class, resp.Label = &resp.Classes[0], resp.Labels[0]
		resp.Classes, resp.Labels = nil, nil
	}
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, "predict", resp)
}

// predictBatch evaluates a multi-vector request in one compiled PredictN
// sweep — one bounds-checked dispatch for the whole batch instead of a
// call per vector — and counts its vectors in the batched-predictions
// counter.
func (s *Server) predictBatch(e *registry.Entry, vectors [][]float64) []int {
	classes := make([]int, len(vectors))
	e.Compiled.PredictN(vectors, classes)
	s.met.CounterAdd("apollo_predict_batched_total", "", "",
		"Vectors evaluated through the compiled batch walk.", uint64(len(vectors)))
	return classes
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, "healthz", map[string]any{"status": "ok", "models": s.reg.Len()})
}
