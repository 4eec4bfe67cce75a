package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"apollo/internal/core"
	"apollo/internal/features"
	"apollo/internal/looptrace"
	"apollo/internal/tuner"
)

// Source adapts a Client into a tuner.ModelSource: it fetches named
// policy/chunk models from the service, builds projectors onto the
// application's feature schema, and atomically swaps a new projector set
// in whenever the service publishes a new version — the running tuner
// picks up the retrained model at its next launch, with no restart and
// no locking on the launch path. When the service has never been
// reachable, the source stays empty and the tuner runs on its base
// parameters (graceful degradation). Behind a *FleetClient the same
// degradation path gains failover: a refresh that would have served a
// stale copy from a dead replica is answered by the next ring member.
type Source struct {
	c          Service
	schema     *features.Schema
	policyName string // "" = no policy model
	chunkName  string // "" = no chunk model

	ps atomic.Pointer[tuner.Projectors]

	mu         sync.Mutex //apollo:lockrank 13
	policyVer  int
	policyHash string
	policyLoop string // the installed policy version's retrain cycle ("" = none)
	chunkVer   int
	chunkHash  string
	lastErr    error
	swaps      uint64
	trace      *looptrace.Tracer
}

// NewSource returns a source reading policyName and/or chunkName (either
// may be empty) through c — a single-replica *Client or a ring-routed
// *FleetClient — projecting onto schema. Call Refresh (on a timer, to
// follow new versions) to populate it; until then the tuner sees an
// empty set.
func NewSource(c Service, schema *features.Schema, policyName, chunkName string) *Source {
	s := &Source{c: c, schema: schema, policyName: policyName, chunkName: chunkName}
	s.ps.Store(&tuner.Projectors{})
	return s
}

// Projectors returns the current set. Lock-free; called per launch.
func (s *Source) Projectors() *tuner.Projectors { return s.ps.Load() }

// SetTrace routes a client-swap loop event through tr every time the
// source hot-swaps to a new model version, correlated (via the fetched
// envelope's lineage block) with the retrain cycle that published it.
// A nil tracer disables emission; call before the first Refresh.
func (s *Source) SetTrace(tr *looptrace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = tr
}

// Swaps returns how many times a new model version has been swapped in.
func (s *Source) Swaps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swaps
}

// Running returns the policy model version the source has installed and
// the loop ID of the retrain cycle that published it (0 and "" before the
// first install; "" for a version without lineage). It is what an
// Uploader's Attribution stamps on a batch: the version these rows were
// decided by, whichever replica served it.
func (s *Source) Running() (version int, loopID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policyVer, s.policyLoop
}

// Err returns the most recent refresh error, nil after a clean refresh.
func (s *Source) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Refresh fetches both models (subject to the client's backoff) and, if
// either version changed, publishes a rebuilt projector set. It returns
// an error only when a wanted model has never been fetched at all —
// serving a stale model during an outage is success, not failure.
func (s *Source) Refresh() error {
	var errs []error
	var policy, chunk *Cached
	if s.policyName != "" {
		c, err := s.c.Fetch(s.policyName)
		if err != nil {
			errs = append(errs, err)
		} else if c.Model.Param != core.ExecutionPolicy {
			errs = append(errs, fmt.Errorf("client: model %s predicts %v, want execution_policy",
				s.policyName, c.Model.Param))
		} else {
			policy = c
		}
	}
	if s.chunkName != "" {
		c, err := s.c.Fetch(s.chunkName)
		if err != nil {
			errs = append(errs, err)
		} else if c.Model.Param != core.ChunkSize {
			errs = append(errs, fmt.Errorf("client: model %s predicts %v, want chunk_size",
				s.chunkName, c.Model.Param))
		} else {
			chunk = c
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastErr = errors.Join(errs...)
	// Swap only on change: projector construction is off the hot path but
	// not free, and an unchanged set must keep its warmed buffer pools.
	changed := false
	if policy != nil && (policy.Version != s.policyVer || policy.SchemaHash != s.policyHash) {
		s.policyVer, s.policyHash, s.policyLoop = policy.Version, policy.SchemaHash, s.emitSwapLocked(policy)
		changed = true
	}
	if chunk != nil && (chunk.Version != s.chunkVer || chunk.SchemaHash != s.chunkHash) {
		s.chunkVer, s.chunkHash = chunk.Version, chunk.SchemaHash
		s.emitSwapLocked(chunk)
		changed = true
	}
	if changed {
		next := &tuner.Projectors{}
		cur := s.ps.Load()
		if policy != nil {
			next.Policy = policy.Model.NewProjector(s.schema)
		} else {
			next.Policy = cur.Policy
		}
		if chunk != nil {
			next.Chunk = chunk.Model.NewProjector(s.schema)
		} else {
			next.Chunk = cur.Chunk
		}
		s.ps.Store(next)
		s.swaps++
	}
	return s.lastErr
}

// emitSwapLocked records one client-swap loop event for a model the
// source is about to switch to, and returns the loop ID it carries.
// Emit takes only the tracer's own lock (ranked after s.mu) and does no
// I/O; the lineage block (when present) supplies the loop ID and parent
// version that tie the swap to its retrain cycle.
func (s *Source) emitSwapLocked(c *Cached) (loop string) {
	f := looptrace.Fields{Version: int32(c.Version)}
	if c.Lineage != nil {
		loop = c.Lineage.LoopID
		f.Parent = int32(c.Lineage.ParentVersion)
	}
	s.trace.Emit(looptrace.KindClientSwap, c.Name, loop, f)
	return loop
}
