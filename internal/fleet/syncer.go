package fleet

import (
	"net/http"
	"sync/atomic"
	"time"

	"apollo/internal/client"
	"apollo/internal/looptrace"
	"apollo/internal/metrics"
	"apollo/internal/registry"
)

// maxSyncModelBytes caps a pulled model body (matches the server's PUT
// cap; trained trees are tens of kilobytes).
const maxSyncModelBytes = 16 << 20

// SyncerOptions tunes a Syncer; the zero value picks defaults.
type SyncerOptions struct {
	// HTTPClient overrides the pull transport (default 5s timeout).
	HTTPClient *http.Client
	// Logf receives pull/skip diagnostics (default: discard).
	Logf func(format string, args ...any)
	// Trace (optional) receives one sync-pull loop event per model
	// pulled from a peer, correlated with the retrain cycle via the
	// pulled envelope's lineage block. Nil disables emission.
	Trace *looptrace.Tracer
}

// Syncer is the delta model-distribution half of the fleet layer: it
// polls each peer's model list and pulls every model whose version is
// strictly ahead of the local registry's, installing the peer's raw
// envelope through PublishRaw. Because the registry's envelope
// marshaling is deterministic, a model pulled this way lands with the
// same version and the same content ETag on every replica — which is
// exactly the convergence the serving clients' conditional GETs key on.
// Version ties with differing ETags (two replicas independently
// publishing the same version) are never pulled — they are surfaced as
// the divergence counter so an operator sees a split champion instead
// of the fleet ping-ponging versions upward forever.
type Syncer struct {
	reg   *registry.Registry
	peers []Peer
	hc    *http.Client
	logf  func(format string, args ...any)
	trace *looptrace.Tracer

	pulls       atomic.Uint64 // models pulled from peers
	errors      atomic.Uint64 // failed list or pull round trips
	divergences atomic.Uint64 // same-version different-ETag sightings
}

// NewSyncer returns a syncer that converges reg onto the newest model
// versions its peers hold. The local replica must not list itself as a
// peer (it would pull its own publishes — harmless but wasteful).
func NewSyncer(reg *registry.Registry, peers []Peer, opts SyncerOptions) *Syncer {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Syncer{
		reg:   reg,
		peers: append([]Peer(nil), peers...),
		hc:    opts.HTTPClient,
		logf:  opts.Logf,
		trace: opts.Trace,
	}
}

// Pulls returns how many model versions have been pulled from peers.
func (s *Syncer) Pulls() uint64 { return s.pulls.Load() }

// Errors returns how many peer round trips failed.
func (s *Syncer) Errors() uint64 { return s.errors.Load() }

// Divergences returns how many same-version/different-ETag conflicts
// have been observed (a split champion needs operator attention).
func (s *Syncer) Divergences() uint64 { return s.divergences.Load() }

// SyncOnce polls every peer once and returns how many models it pulled.
// A peer that is down just counts an error — the fleet keeps serving.
func (s *Syncer) SyncOnce() int {
	pulled := 0
	for _, p := range s.peers {
		n, err := s.syncPeer(p)
		pulled += n
		if err != nil {
			s.errors.Add(1)
			s.logf("fleet: sync %s: %v", p.ID, err)
		}
	}
	return pulled
}

// syncPeer diffs one peer's list against the local registry and pulls
// what is strictly newer.
func (s *Syncer) syncPeer(p Peer) (int, error) {
	pc := p.Client(s.hc)
	list, err := pc.List()
	if err != nil {
		return 0, err
	}
	pulled := 0
	for _, m := range list {
		local, ok := s.reg.Get(m.Name)
		if ok {
			if m.Version < local.Version {
				continue
			}
			if m.Version == local.Version {
				if m.ETag != local.ETag {
					s.divergences.Add(1)
					s.logf("fleet: %s v%d diverged from %s (etag %s vs %s)",
						m.Name, m.Version, p.ID, local.ETag, m.ETag)
				}
				continue
			}
		}
		if err := s.pull(p, pc, m); err != nil {
			s.errors.Add(1)
			s.logf("fleet: pulling %s v%d from %s: %v", m.Name, m.Version, p.ID, err)
			continue
		}
		pulled++
	}
	return pulled, nil
}

// pull fetches one model envelope and installs it locally. PublishRaw
// honors the envelope's own (ahead) version, so the version number — and
// with deterministic marshaling, the ETag — carries over unchanged.
func (s *Syncer) pull(p Peer, pc *client.Client, m client.ModelInfo) error {
	start := time.Now()
	data, err := pc.FetchRaw(m.Name, maxSyncModelBytes)
	if err != nil {
		return err
	}
	e, err := s.reg.PublishRaw(m.Name, data)
	if err != nil {
		return err
	}
	s.pulls.Add(1)
	loop, parent := "", 0
	if e.Lineage != nil {
		loop, parent = e.Lineage.LoopID, e.Lineage.ParentVersion
	}
	s.trace.Emit(looptrace.KindSyncPull, e.Name, loop, looptrace.Fields{
		Version: int32(e.Version), Parent: int32(parent),
		DurNS: float64(time.Since(start)), Peer: p.ID,
	})
	s.logf("fleet: pulled %s v%d from %s", e.Name, e.Version, p.ID)
	return nil
}

// ExportMetrics refreshes the syncer gauges on met.
func (s *Syncer) ExportMetrics(met *metrics.Metrics) {
	met.GaugeSet("apollo_fleet_sync_pulls_total", "", "",
		"Model versions pulled from peer replicas.", int64(s.Pulls()))
	met.GaugeSet("apollo_fleet_sync_errors_total", "", "",
		"Failed peer sync round trips.", int64(s.Errors()))
	met.GaugeSet("apollo_fleet_sync_divergences_total", "", "",
		"Same-version different-ETag conflicts observed across peers.", int64(s.Divergences()))
}
