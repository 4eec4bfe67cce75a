package fleet

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/looptrace"
)

// HealthOptions tunes a Health checker; the zero value picks defaults.
type HealthOptions struct {
	// HTTPClient overrides the probe transport (default 2s timeout).
	HTTPClient *http.Client
	// FailAfter is how many consecutive probe failures evict a replica
	// from the ring (default 2 — one lost probe must not reshuffle keys).
	FailAfter int
	// Logf receives up/down transitions (default: discard).
	Logf func(format string, args ...any)
	// Trace (optional) receives ring-evict / ring-readmit loop events on
	// membership transitions (Peer = replica ID). Nil disables emission.
	Trace *looptrace.Tracer
}

// Membership is what the checker drives: the hash ring (or anything
// else that wants add/remove membership events).
type Membership interface {
	Add(id string)
	Remove(id string)
}

// Health probes replica liveness and edits ring membership. A replica
// leaves the ring after FailAfter consecutive failed /healthz probes and
// rejoins on the first success, so routing converges to the live set
// within a probe interval or two while brief blips change nothing.
type Health struct {
	peers []Peer
	ring  Membership
	hc    *http.Client
	after int
	logf  func(format string, args ...any)
	trace *looptrace.Tracer

	mu       sync.Mutex //apollo:lockrank 16
	failures map[string]int
	down     map[string]bool

	probes    atomic.Uint64
	evictions atomic.Uint64
}

// NewHealth returns a checker probing peers and editing ring membership.
// Every peer starts presumed-up; call CheckOnce to probe.
func NewHealth(peers []Peer, ring Membership, opts HealthOptions) *Health {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 2 * time.Second}
	}
	if opts.FailAfter <= 0 {
		opts.FailAfter = 2
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Health{
		peers:    append([]Peer(nil), peers...),
		ring:     ring,
		hc:       opts.HTTPClient,
		after:    opts.FailAfter,
		logf:     opts.Logf,
		trace:    opts.Trace,
		failures: map[string]int{},
		down:     map[string]bool{},
	}
}

// Probes returns how many individual replica probes have run.
func (h *Health) Probes() uint64 { return h.probes.Load() }

// Evictions returns how many times a replica was removed from the ring.
func (h *Health) Evictions() uint64 { return h.evictions.Load() }

// Up reports whether peer id is currently considered healthy.
func (h *Health) Up(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down[id]
}

// CheckOnce probes every peer once and applies membership changes,
// returning how many peers answered healthy.
func (h *Health) CheckOnce() int {
	healthy := 0
	for _, p := range h.peers {
		h.probes.Add(1)
		if p.Client(h.hc).Healthy() == nil {
			healthy++
			h.markUp(p)
		} else {
			h.markDown(p)
		}
	}
	return healthy
}

// markUp clears failure state and (re)admits the replica to the ring.
// Ring edits happen outside h.mu: the ring has its own lock and Add on a
// present member is a no-op.
func (h *Health) markUp(p Peer) {
	h.mu.Lock()
	wasDown := h.down[p.ID]
	h.failures[p.ID] = 0
	delete(h.down, p.ID)
	h.mu.Unlock()
	if wasDown {
		h.trace.Emit(looptrace.KindRingReadmit, "", "", looptrace.Fields{Peer: p.ID})
		h.logf("fleet: replica %s recovered, rejoining ring", p.ID)
	}
	h.ring.Add(p.ID)
}

// markDown counts the failure and evicts the replica at the threshold.
func (h *Health) markDown(p Peer) {
	h.mu.Lock()
	h.failures[p.ID]++
	evict := h.failures[p.ID] >= h.after && !h.down[p.ID]
	if evict {
		h.down[p.ID] = true
	}
	h.mu.Unlock()
	if evict {
		h.evictions.Add(1)
		h.trace.Emit(looptrace.KindRingEvict, "", "", looptrace.Fields{Peer: p.ID})
		h.logf("fleet: replica %s failed %d probes, leaving ring", p.ID, h.after)
		h.ring.Remove(p.ID)
	}
}
