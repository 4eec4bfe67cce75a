// Package client consumes the Apollo model service from inside an
// application process. It fetches models with conditional GETs (ETag /
// If-None-Match); a fetched body is validated and compiled once by
// core's decoder, and the model is installed behind an atomic pointer —
// every decision, first sight or not, is one lock-free map read plus a
// compiled array walk. Crucially for a tuner on an application's launch
// hot path the client also degrades gracefully: when the server is
// unreachable, or answers with a body the decoder rejects, it serves the
// last fetched model, or nothing at all (the tuner then uses its base
// parameters), and retries on an exponential backoff schedule instead
// of hammering the network on every launch.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/core"
)

// ErrNotFound reports that the service has no model under the requested
// name. Callers bootstrapping a model (the continuous trainer publishing
// a first champion) test for it with errors.Is.
var ErrNotFound = errors.New("model not found")

// Cached is one fetched model version held in-process. Immutable.
type Cached struct {
	// Name is the registry name the model was fetched under.
	Name string
	// Version is the registry version.
	Version int
	// ETag is the server's entity tag, replayed in If-None-Match.
	ETag string
	// SchemaHash fingerprints the model's prediction contract.
	SchemaHash string
	// Model is the decoded model; Predict walks its Compiled tree.
	Model *core.Model
	// Lineage is the provenance block from the fetched envelope (nil
	// for hand-published or legacy models); its loop ID lets the client
	// stamp swap events and telemetry batches with the retrain cycle
	// that produced the version it runs.
	Lineage *core.Lineage
}

// Options tunes a client; the zero value picks sensible defaults.
type Options struct {
	// HTTPClient overrides the transport (default: 5s-timeout client).
	HTTPClient *http.Client
	// InitialBackoff is the delay after the first failure (default 100ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential schedule (default 30s).
	MaxBackoff time.Duration
}

// Client talks to one model service.
type Client struct {
	base string
	hc   *http.Client

	retry *backoff

	// models is copy-on-write behind an atomic pointer: Predict reads it
	// on every launch decision, so the read path must not take mu. mu
	// serializes writers (map growth and backoff bookkeeping) only.
	mu     sync.Mutex //apollo:lockrank 10
	models atomic.Pointer[map[string]*modelState]

	fetches atomic.Uint64 // network round trips attempted
}

// modelState tracks one model name's cache and failure backoff.
type modelState struct {
	cur         atomic.Pointer[Cached]
	failures    int
	nextAttempt time.Time
}

// New returns a client for the service at base (e.g. "http://host:8080").
func New(base string, opts Options) *Client {
	return newClient(base, opts, newBackoff(opts))
}

// newClient is New on a given retry policy: a fleet's replica clients
// all run the one their FleetClient hands its uploader.
func newClient(base string, opts Options, retry *backoff) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	}
	c := &Client{base: base, hc: opts.HTTPClient, retry: retry}
	c.models.Store(&map[string]*modelState{})
	return c
}

// backoff is the package's one retry policy: full-jitter exponential
// backoff, rand() * min(max, initial<<failures), on an injectable clock.
// Spreading each delay uniformly over the exponential window keeps a
// fleet of clients that all lost the server at once from retrying in
// synchronized waves. A Client arms it per model and an Uploader per
// upload stream, each keeping its own failure count and deadline.
type backoff struct {
	initial time.Duration
	max     time.Duration
	now     func() time.Time // injectable for backoff tests
	rand    func() float64   // injectable jitter source in [0,1)
}

func newBackoff(opts Options) *backoff {
	b := &backoff{initial: opts.InitialBackoff, max: opts.MaxBackoff, now: time.Now, rand: rand.Float64}
	if b.initial <= 0 {
		b.initial = 100 * time.Millisecond
	}
	if b.max <= 0 {
		b.max = 30 * time.Second
	}
	return b
}

// delay returns the wait after the failures-th consecutive failure.
func (b *backoff) delay(failures int) time.Duration {
	d := b.initial << uint(failures)
	if d > b.max || d <= 0 {
		d = b.max
	}
	return time.Duration(b.rand() * float64(d))
}

// retryPolicy is the Service interface's hook for the uploader.
func (c *Client) retryPolicy() *backoff { return c.retry }

// Fetches returns how many network round trips the client has attempted
// (successful or not) — backoff keeps this bounded under outages.
func (c *Client) Fetches() uint64 { return c.fetches.Load() }

// state returns (creating if needed) the tracking record for name. The
// read path is one atomic load; a new name copies the map under mu.
func (c *Client) state(name string) *modelState {
	if st, ok := (*c.models.Load())[name]; ok {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.models.Load()
	if st, ok := old[name]; ok {
		return st
	}
	next := make(map[string]*modelState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	st := &modelState{}
	next[name] = st
	c.models.Store(&next)
	return st
}

// Push publishes a model under name and returns its new version.
func (c *Client) Push(name string, m *core.Model) (int, error) {
	return c.PushLineage(name, m, nil)
}

// PushLineage is Push with a provenance block: lin (optional) rides in
// an envelope at version 0 (the service assigns the real version) and
// is persisted into the published artifact.
func (c *Client) PushLineage(name string, m *core.Model, lin *core.Lineage) (int, error) {
	var body []byte
	var err error
	if lin == nil {
		body, err = m.MarshalJSON()
	} else {
		env := core.WrapModel(name, 0, m)
		env.Lineage = lin
		body, err = env.MarshalJSON()
	}
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPut, c.base+"/models/"+name, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.fetches.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //apollo:errok best-effort error-body snippet; the status error is being built regardless
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("client: push %s: %s: %s", name, resp.Status, bytes.TrimSpace(data))
	}
	var out struct {
		Version int `json:"version"`
	}
	if err := unmarshal(data, &out); err != nil {
		return 0, err
	}
	return out.Version, nil
}

// ModelInfo is one entry of the service's GET /models list, the part of
// it a peer needs to tell whether it holds the same model.
type ModelInfo struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	ETag    string `json:"etag"`
}

// List returns the service's GET /models list. It is the one reader of
// that wire shape: the syncer, the health tooling and apollo-inspect all
// come through it.
func (c *Client) List() ([]ModelInfo, error) {
	data, err := c.get("/models", 16<<20)
	if err != nil {
		return nil, err
	}
	var list struct {
		Models []ModelInfo `json:"models"`
	}
	if err := unmarshal(data, &list); err != nil {
		return nil, err
	}
	return list.Models, nil
}

// Healthy is one /healthz probe: nil when the service answers 200.
func (c *Client) Healthy() error {
	_, err := c.get("/healthz", 1<<16)
	return err
}

// FetchRaw returns name's envelope byte for byte as the service stores
// it, at most limit bytes long — what a peer replica installs through
// registry.PublishRaw — under get's contract.
func (c *Client) FetchRaw(name string, limit int) ([]byte, error) {
	return c.get("/models/"+name, limit)
}

// get is one GET with the status checked and the body capped: anything
// but 200 is an error naming the status (a JSON error body must never
// read as an empty answer), and so is a body over limit bytes.
func (c *Client) get(path string, limit int) ([]byte, error) {
	c.fetches.Add(1)
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
	switch {
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("client: GET %s: %s", path, resp.Status)
	case err != nil:
		return nil, fmt.Errorf("client: GET %s: %w", path, err)
	case len(data) > limit:
		return nil, fmt.Errorf("client: GET %s: body exceeds %d bytes", path, limit)
	}
	return data, nil
}

// Cached returns the in-process copy of name without touching the
// network, or nil if nothing has been fetched yet.
func (c *Client) Cached(name string) *Cached {
	return c.state(name).cur.Load()
}

// Fetch returns the current model for name, revalidating the in-process
// copy with a conditional GET. Behavior under failure:
//
//   - server answers 304: the cached copy is returned with no decode cost;
//   - network failure with a cached copy: the stale copy is returned
//     (err == nil — a tuner must keep launching) and the failure arms the
//     exponential backoff, so launches inside the backoff window skip the
//     network entirely;
//   - network failure with no cached copy: the error is returned and
//     backoff is armed the same way.
func (c *Client) Fetch(name string) (*Cached, error) {
	st := c.state(name)
	cur := st.cur.Load()

	c.mu.Lock()
	wait := st.nextAttempt.After(c.retry.now())
	c.mu.Unlock()
	if wait {
		if cur != nil {
			return cur, nil
		}
		return nil, fmt.Errorf("client: %s unavailable, in backoff", name)
	}

	req, err := http.NewRequest(http.MethodGet, c.base+"/models/"+name, nil)
	if err != nil {
		return nil, err
	}
	if cur != nil && cur.ETag != "" {
		req.Header.Set("If-None-Match", cur.ETag)
	}
	c.fetches.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail(st)
		if cur != nil {
			return cur, nil
		}
		return nil, fmt.Errorf("client: fetching %s: %w", name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		c.ok(st)
		return cur, nil
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		if err != nil {
			c.fail(st)
			if cur != nil {
				return cur, nil
			}
			return nil, err
		}
		env, err := core.ParseModelOrEnvelope(data)
		if err != nil {
			// The server sent garbage — unparsable, or a model that
			// contradicts its own header; treat as outage, keep serving.
			c.fail(st)
			if cur != nil {
				return cur, nil
			}
			return nil, err
		}
		version := env.Version
		if v, err := strconv.Atoi(resp.Header.Get("X-Apollo-Model-Version")); err == nil && v > 0 {
			version = v
		}
		next := &Cached{
			Name:       name,
			Version:    version,
			ETag:       resp.Header.Get("ETag"),
			SchemaHash: env.Model.SchemaHash(),
			Model:      env.Model,
			Lineage:    env.Lineage,
		}
		st.cur.Store(next)
		c.ok(st)
		return next, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //apollo:errok best-effort drain so the connection can be reused
		c.fail(st)
		if cur != nil {
			return cur, nil
		}
		return nil, fmt.Errorf("client: fetching %s: %w", name, ErrNotFound)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //apollo:errok best-effort drain so the connection can be reused
		c.fail(st)
		if cur != nil {
			return cur, nil
		}
		return nil, fmt.Errorf("client: fetching %s: %s", name, resp.Status)
	}
}

// ok clears the backoff after a successful round trip.
func (c *Client) ok(st *modelState) {
	c.mu.Lock()
	st.failures = 0
	st.nextAttempt = time.Time{}
	c.mu.Unlock()
}

// fail arms the backoff after a failed round trip.
func (c *Client) fail(st *modelState) {
	c.mu.Lock()
	st.nextAttempt = c.retry.now().Add(c.retry.delay(st.failures))
	if st.failures < 30 {
		st.failures++
	}
	c.mu.Unlock()
}

// Predict evaluates the named model on a vector laid out by the model's
// own schema. The decision path never blocks on the network: it uses
// whatever model Fetch last cached, and errors only if no model has ever
// been fetched. Every decision costs one atomic map load plus the walk
// of the tree compiled when the model was decoded: no locks, no
// allocation (apollo-vet and the zero-alloc guard test both enforce
// this).
//
//apollo:hotpath
func (c *Client) Predict(name string, x []float64) (int, error) {
	var cur *Cached
	if st, ok := (*c.models.Load())[name]; ok {
		cur = st.cur.Load()
	}
	if cur == nil {
		var err error
		if cur, err = c.predictBootstrap(name); err != nil {
			return 0, err
		}
	}
	if len(x) != cur.Model.Schema.Len() {
		return 0, sizeMismatch(name, len(x), cur.Model.Schema.Len())
	}
	return cur.Model.Compiled().Predict(x), nil
}

// predictBootstrap resolves the first decision for a model name: fetch
// it (or surface why we cannot). Every later launch hits the atomic
// model cache and never lands here.
//
//apollo:coldpath first decision per model name; steady-state launches read the atomic cache
func (c *Client) predictBootstrap(name string) (*Cached, error) {
	if cur := c.state(name).cur.Load(); cur != nil {
		return cur, nil
	}
	return c.Fetch(name)
}

// sizeMismatch builds the vector-layout error off the hot path.
//
//apollo:coldpath error construction for malformed input vectors
func sizeMismatch(name string, got, want int) error {
	return fmt.Errorf("client: vector has %d features, model %s wants %d", got, name, want)
}

// unmarshal decodes JSON with a context-rich error.
func unmarshal(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("client: decoding %q: %w", bytes.TrimSpace(data), err)
	}
	return nil
}
