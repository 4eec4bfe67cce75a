// FleetClient routes model fetches and telemetry uploads across an
// N-replica model-service fleet through a consistent-hash ring, failing
// over to the next ring member when a replica is unreachable. Each
// replica keeps its own single-service Client (with its own model cache
// and backoff schedule), so a replica outage degrades exactly like a
// single-server outage did — serve the cached model, back off the
// network — except the very next refresh lands on a healthy ring member
// instead of waiting out the exponential schedule against a dead one.

package client

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"apollo/internal/fleet/hashring"
	"apollo/internal/telemetry"
)

// Service is the narrow model-service surface a Source or Uploader
// consumes: a single replica (*Client) or a ring-routed fleet
// (*FleetClient). The unexported retryPolicy hands the uploader the
// backoff policy of whichever implementation is behind it.
type Service interface {
	// Fetch returns the current model for name (possibly a cached copy
	// during an outage; see Client.Fetch).
	Fetch(name string) (*Cached, error)
	// PostTelemetry ships one batch to the service.
	PostTelemetry(b *telemetry.Batch) error

	retryPolicy() *backoff
}

// FleetClient fans a Client out across replicas behind a hash ring.
// It has no mutex: the replica set is immutable after New, membership
// lives in the ring's own copy-on-write table, and the failover
// counters are atomics.
type FleetClient struct {
	ring    *hashring.Ring
	clients map[string]*Client
	order   []string // sorted replica ids, the last-resort try order

	retry *backoff // shared with every replica client

	failovers atomic.Uint64 // requests answered by a non-primary replica
	exhausted atomic.Uint64 // requests that failed on every replica
}

// NewFleet returns a fleet client over the replicas (id -> base URL).
// All replicas start as ring members; a health checker may Add/Remove
// them through Ring() as probes succeed or fail. Options apply to every
// per-replica client.
func NewFleet(replicas map[string]string, opts Options) (*FleetClient, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("client: a fleet needs at least one replica")
	}
	f := &FleetClient{
		ring:    hashring.New(0),
		clients: make(map[string]*Client, len(replicas)),
		retry:   newBackoff(opts),
	}
	for id, base := range replicas {
		if id == "" || base == "" {
			return nil, fmt.Errorf("client: fleet replica with empty id or URL")
		}
		f.clients[id] = newClient(base, opts, f.retry)
		f.order = append(f.order, id)
		f.ring.Add(id)
	}
	sort.Strings(f.order)
	return f, nil
}

// Ring exposes ring membership: a health checker removes replicas whose
// probes fail and re-adds them when they recover. The replica's Client
// (and its cached models) stays resident either way, so a recovered
// replica resumes serving instantly.
func (f *FleetClient) Ring() *hashring.Ring { return f.ring }

// Failovers returns how many requests were answered by a replica other
// than the key's primary owner.
func (f *FleetClient) Failovers() uint64 { return f.failovers.Load() }

// Exhausted returns how many requests failed on every tried replica.
func (f *FleetClient) Exhausted() uint64 { return f.exhausted.Load() }

func (f *FleetClient) retryPolicy() *backoff { return f.retry }

// prefer returns the failover try order for key: the ring's distinct
// preference walk, then any configured replicas the ring no longer
// holds (all-unhealthy fleets still get a last-ditch attempt each).
func (f *FleetClient) prefer(key string, dst []string) []string {
	dst = f.ring.LookupN(key, len(f.order), dst)
	if len(dst) == len(f.order) {
		return dst
	}
	for _, id := range f.order {
		if !slices.Contains(dst, id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Fetch resolves name through the ring with failover. A replica whose
// round trip failed (Client.Fetch hides this by returning its cached
// copy) is detected through its armed backoff and the next preference
// member is tried; the freshest cached copy across tried replicas is
// returned when every replica is unreachable.
func (f *FleetClient) Fetch(name string) (*Cached, error) {
	var stale *Cached
	var firstErr error
	primary := true
	for _, id := range f.prefer(name, make([]string, 0, len(f.order))) {
		c := f.clients[id]
		got, err := c.Fetch(name)
		if err == nil && !c.backoffActive(name) {
			if !primary {
				f.failovers.Add(1)
			}
			return got, nil
		}
		if got != nil && (stale == nil || got.Version > stale.Version) {
			stale = got
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		primary = false
	}
	f.exhausted.Add(1)
	if stale != nil {
		return stale, nil
	}
	return nil, firstErr
}

// PostTelemetry ships the batch to the first reachable replica in the
// batch's ring order, so one model's telemetry concentrates on its
// owner's spool and a dead owner degrades to the next ring member
// instead of stranding samples behind exponential backoff.
func (f *FleetClient) PostTelemetry(b *telemetry.Batch) error {
	var firstErr error
	primary := true
	for _, id := range f.prefer(b.Model, make([]string, 0, len(f.order))) {
		if err := f.clients[id].PostTelemetry(b); err == nil {
			if !primary {
				f.failovers.Add(1)
			}
			return nil
		} else if firstErr == nil {
			firstErr = err
		}
		primary = false
	}
	f.exhausted.Add(1)
	return firstErr
}

// backoffActive reports whether name's backoff window is armed on c —
// the fleet client's tell that the copy Fetch just returned was served
// through an outage rather than a fresh round trip.
func (c *Client) backoffActive(name string) bool {
	st := c.state(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	return st.nextAttempt.After(c.retry.now())
}
