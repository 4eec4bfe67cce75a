package main

import (
	"flag"
	"fmt"
	"net/http"
	"sort"
	"time"

	"apollo/internal/client"
	"apollo/internal/fleet"
)

// runFleetCmd implements "apollo-inspect fleet": probe every replica's
// health and model list and report whether the fleet has converged —
// same version AND same content ETag for every model on every live
// replica. Exit status is non-zero on divergence or unreachable
// replicas, so smoke scripts can assert convergence with one call.
func runFleetCmd(args []string) error {
	fs := flag.NewFlagSet("apollo-inspect fleet", flag.ContinueOnError)
	replicas := fs.String("replicas", "", "fleet replicas as comma-separated id=url pairs (required)")
	timeout := fs.Duration("timeout", 3*time.Second, "per-replica probe timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers, err := fleet.ParsePeers(*replicas)
	if err != nil {
		return err
	}
	if len(peers) == 0 {
		return fmt.Errorf("-replicas is required")
	}
	return inspectFleet(peers, &http.Client{Timeout: *timeout})
}

// replicaModels is one replica's view of the registry.
type replicaModels struct {
	peer   fleet.Peer
	err    error // nil: the replica is up and models is its list
	models map[string]client.ModelInfo
}

func inspectFleet(peers []fleet.Peer, hc *http.Client) error {
	views := make([]replicaModels, 0, len(peers))
	for _, p := range peers {
		views = append(views, probeReplica(p, hc))
	}

	// Per-replica status lines first.
	unreachable := 0
	for _, v := range views {
		if v.err != nil {
			unreachable++
			fmt.Printf("replica %-8s %-24s DOWN (%v)\n", v.peer.ID, v.peer.Base, v.err)
			continue
		}
		fmt.Printf("replica %-8s %-24s up, %d model(s)\n", v.peer.ID, v.peer.Base, len(v.models))
	}

	// Convergence verdict per model name across live replicas.
	names := map[string]bool{}
	for _, v := range views {
		for name := range v.models {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	diverged := 0
	for _, name := range sorted {
		var first *client.ModelInfo
		missing := 0
		same := true
		for _, v := range views {
			if v.err != nil {
				continue
			}
			mv, ok := v.models[name]
			if !ok {
				missing++
				continue
			}
			if first == nil {
				c := mv
				first = &c
			} else if mv.Version != first.Version || mv.ETag != first.ETag {
				same = false
			}
		}
		switch {
		case !same:
			diverged++
			fmt.Printf("model %-28s DIVERGED\n", name)
			for _, v := range views {
				if mv, ok := v.models[name]; ok {
					fmt.Printf("  %-8s v%-4d %s\n", v.peer.ID, mv.Version, mv.ETag)
				}
			}
		case missing > 0:
			diverged++
			fmt.Printf("model %-28s MISSING on %d live replica(s)\n", name, missing)
		default:
			fmt.Printf("model %-28s converged v%d %s\n", name, first.Version, first.ETag)
		}
	}

	if diverged > 0 || unreachable > 0 {
		return fmt.Errorf("fleet not converged: %d diverged/missing model(s), %d unreachable replica(s)",
			diverged, unreachable)
	}
	fmt.Printf("fleet converged: %d replica(s), %d model(s)\n", len(views), len(sorted))
	return nil
}

func probeReplica(p fleet.Peer, hc *http.Client) replicaModels {
	v := replicaModels{peer: p, models: map[string]client.ModelInfo{}}
	c := p.Client(hc)
	if v.err = c.Healthy(); v.err != nil {
		return v
	}
	var list []client.ModelInfo
	list, v.err = c.List()
	for _, m := range list {
		v.models[m.Name] = m
	}
	return v
}
