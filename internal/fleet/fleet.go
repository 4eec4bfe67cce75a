// Package fleet turns the single-daemon Apollo service into an
// N-replica system. It holds the control plane the data path (the
// ring-routed FleetClient in internal/client) leans on:
//
//   - Health: probes every replica's /healthz and drives hash-ring
//     membership, so clients stop routing to a dead replica within a
//     probe interval instead of discovering the outage per request.
//   - Syncer: delta model distribution. Each replica polls its peers'
//     model lists and pulls any strictly newer version over the existing
//     ETag/conditional-GET plumbing, so a champion published on one
//     replica converges on all of them — same version, same entity tag,
//     because the registry's envelope marshaling is deterministic.
//
// Everything here is control-plane code: seconds-cadence polling loops
// that never sit on a launch path.
package fleet

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"apollo/internal/client"
	"apollo/internal/fleet/hashring"
	"apollo/internal/metrics"
)

// Peer names one fleet replica: a stable id (its ring identity) and the
// base URL of its model-service API.
type Peer struct {
	ID   string
	Base string
}

// Client returns a model-service client for the replica on transport hc:
// how the syncer, the health checker and apollo-inspect list and probe a
// peer. A cheap handle: callers that keep no model cache build one a call.
func (p Peer) Client(hc *http.Client) *client.Client {
	return client.New(p.Base, client.Options{HTTPClient: hc})
}

// ParsePeers parses a "-peers"-style flag: comma-separated id=url pairs,
// e.g. "r1=http://10.0.0.1:8080,r2=http://10.0.0.2:8080". A bare URL
// with no id uses the URL as both.
func ParsePeers(s string) ([]Peer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var peers []Peer
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p := Peer{ID: part, Base: part}
		if i := strings.Index(part, "="); i >= 0 {
			p.ID, p.Base = part[:i], part[i+1:]
		}
		if p.ID == "" || p.Base == "" {
			return nil, fmt.Errorf("fleet: malformed peer %q (want id=url)", part)
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("fleet: duplicate peer id %q", p.ID)
		}
		seen[p.ID] = true
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	return peers, nil
}

// PeerMap returns the peers as the id -> base map client.NewFleet wants.
func PeerMap(peers []Peer) map[string]string {
	m := make(map[string]string, len(peers))
	for _, p := range peers {
		m[p.ID] = p.Base
	}
	return m
}

// ExportRing refreshes the per-replica ring-ownership gauges: each
// member's share of the hash space in basis points (a gauge is integral)
// and the member count.
func ExportRing(met *metrics.Metrics, ring *hashring.Ring) {
	own := ring.Ownership()
	ids := make([]string, 0, len(own))
	for id := range own {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		met.GaugeSet("apollo_fleet_ring_ownership_bp", "replica", id,
			"Share of the consistent-hash key space owned, in basis points.",
			int64(own[id]*10000+0.5))
	}
	met.GaugeSet("apollo_fleet_ring_members", "", "",
		"Replicas currently in the consistent-hash ring.", int64(ring.Len()))
}
