// Command apollo-fleet is the synthetic client-fleet load harness: it
// runs many concurrent tuner+client instances against a multi-replica
// model service and measures what the fleet layer promises — requests
// keep succeeding through a replica kill, telemetry keeps flowing, and
// tail latencies stay bounded.
//
//	apollo-fleet -replicas "r1=http://:8081,r2=http://:8082,r3=http://:8083" \
//	    -model lulesh/policy -clients 8 -steps 40 -duration 10s
//
// Each synthetic client is a full deployment: a ring-routed FleetClient
// with its own health checker, a polling model source, a tuner deciding
// simulated kernel launches (rank-decomposed through the mpirt timer, so
// the traffic has the strong-scaling shape of the paper's experiments),
// a telemetry recorder, and a timed upload loop. On top of the simulated
// launches every client times one FleetClient.Predict a step: a ring
// lookup, then a walk of the owning replica's cached compiled tree, in
// process. Only a client's first decision (before the model is cached)
// or a failover fetches the model over HTTP: p50_predict_us reads the
// in-process walk, and those fetches land in the tail p99_predict_us
// reads. No probe posts to /predict.
//
// The final "apollo-fleet: done ..." line is machine-parsable
// (key=value); scripts/fleet_smoke.sh asserts on failed_predicts,
// failovers, and the recorded p99s.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"apollo/internal/app"
	"apollo/internal/bg"
	"apollo/internal/caliper"
	"apollo/internal/client"
	"apollo/internal/features"
	"apollo/internal/fleet"
	"apollo/internal/harness"
	"apollo/internal/metrics"
	"apollo/internal/mpirt"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
	"apollo/internal/tuner"
)

func main() {
	replicas := flag.String("replicas", "", "fleet replicas as comma-separated id=url pairs (required)")
	model := flag.String("model", "", "policy model name to tune with (required)")
	appName := flag.String("app", "LULESH", "application: LULESH, CleverLeaf, or ARES")
	problem := flag.String("problem", "sedov", "input deck")
	size := flag.Int("size", 16, "global problem size")
	clients := flag.Int("clients", 4, "concurrent synthetic clients")
	steps := flag.Int("steps", 40, "minimum timesteps per client")
	duration := flag.Duration("duration", 0, "minimum wall-clock run time per client (keeps stepping past -steps)")
	ranks := flag.Int("ranks", 4, "simulated MPI ranks per client (mpirt decomposition)")
	exploreEvery := flag.Uint64("explore-every", 8, "every n-th launch of a site may run the other policy, within 1/64 of that site's kernel time; 0 disables")
	poll := flag.Duration("poll", 500*time.Millisecond, "model source poll interval")
	flush := flag.Duration("flush", 300*time.Millisecond, "telemetry upload interval")
	health := flag.Duration("health", 250*time.Millisecond, "replica health-probe interval (0 disables eviction)")
	noise := flag.Float64("noise", 0.05, "measurement noise amplitude")
	seed := flag.Uint64("seed", 1, "noise seed (client i uses seed+i)")
	metricsAddr := flag.String("metrics-addr", "", "serve fleet gauges on this address (empty disables)")
	flag.Parse()

	if _, err := run(*replicas, *model, *appName, *problem, *size, *clients, *steps, *ranks,
		*exploreEvery, *duration, *poll, *flush, *health, *noise, *seed,
		*metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "apollo-fleet:", err)
		os.Exit(1)
	}
}

// latencies accumulates round-trip samples from all clients.
type latencies struct {
	mu sync.Mutex //apollo:lockrank 19
	ns []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, float64(d.Nanoseconds()))
	l.mu.Unlock()
}

// quantile returns the q-th (0..1) latency in microseconds.
func (l *latencies) quantile(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ns) == 0 {
		return 0
	}
	s := append([]float64(nil), l.ns...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i] / 1e3
}

// tally is one client's contribution to the fleet totals.
type tally struct {
	steps, decisions   int
	predicts           int
	failedPredicts     int
	posts, failedPosts int
	rows               uint64
	swaps              uint64
	failovers          uint64
	exhausted          uint64
	evictions          uint64
}

// liveGauges is what a -metrics-addr scrape can observe mid-run:
// ring membership and failover counters from the first client (every
// client sees the same ring, so one is representative), and the
// telemetry-ring drop count summed over every client's recorder.
type liveGauges struct {
	mu   sync.Mutex //apollo:lockrank 14
	ring *client.FleetClient
	recs []*telemetry.Recorder
}

func (l *liveGauges) register(f *client.FleetClient, rec *telemetry.Recorder) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ring == nil {
		l.ring = f
	}
	l.recs = append(l.recs, rec)
}

func (l *liveGauges) export(met *metrics.Metrics) {
	l.mu.Lock()
	ringClient := l.ring
	var dropped uint64
	for _, rec := range l.recs {
		dropped += rec.Dropped()
	}
	l.mu.Unlock()
	if ringClient == nil {
		return
	}
	fleet.ExportRing(met, ringClient.Ring())
	met.GaugeSet("apollo_fleet_failovers_total", "", "",
		"Requests retried on a non-owner replica.", int64(ringClient.Failovers()))
	met.GaugeSet("apollo_fleet_exhausted_total", "", "",
		"Requests that failed on every replica.", int64(ringClient.Exhausted()))
	met.GaugeSet("apollo_telemetry_ring_dropped_total", "", "",
		"Sampled launches lost to a full telemetry ring, over all client tuners.", int64(dropped))
}

func run(replicaSpec, model, appName, problem string, size, clients, steps, ranks int,
	exploreEvery uint64, duration, poll, flush, healthEvery time.Duration,
	noise float64, seed uint64, metricsAddr string) (tally, error) {
	var totals tally
	if model == "" {
		return totals, fmt.Errorf("-model is required")
	}
	peers, err := fleet.ParsePeers(replicaSpec)
	if err != nil {
		return totals, err
	}
	if len(peers) == 0 {
		return totals, fmt.Errorf("-replicas is required")
	}
	desc, err := harness.AppByName(appName)
	if err != nil {
		return totals, err
	}
	if clients < 1 {
		clients = 1
	}

	predictLat, ingestLat := &latencies{}, &latencies{}
	met := metrics.New()
	var live liveGauges
	// The metrics listener and the clients start through one group, stopped
	// once every client has returned — at once if one of them fails.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	g := bg.New(ctx, nil)
	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return totals, err
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler(met, func() { live.export(met) }))
		fmt.Printf("apollo-fleet: metrics on http://%s/metrics\n", ln.Addr())
		g.Serve("metrics", ln, mux)
	}

	fmt.Printf("apollo-fleet: %d clients x %d steps against %d replicas\n", clients, steps, len(peers))
	tallies := make([]tally, clients)
	var clientDone []<-chan struct{}
	for i := range tallies {
		clientDone = append(clientDone, g.Go(fmt.Sprintf("client %d", i), func(ctx context.Context) (err error) {
			tallies[i], err = runClient(ctx, i, peers, model, desc, problem, size, steps, ranks,
				exploreEvery, duration, poll, flush, healthEvery,
				noise, seed+uint64(i), predictLat, ingestLat, &live)
			return err
		}))
	}
	for _, done := range clientDone {
		<-done
	}
	for _, t := range tallies {
		totals.steps += t.steps
		totals.decisions += t.decisions
		totals.predicts += t.predicts
		totals.failedPredicts += t.failedPredicts
		totals.posts += t.posts
		totals.failedPosts += t.failedPosts
		totals.rows += t.rows
		totals.swaps += t.swaps
		totals.failovers += t.failovers
		totals.exhausted += t.exhausted
		totals.evictions += t.evictions
	}
	stop()
	if err := g.Wait(); err != nil {
		return totals, err
	}

	fmt.Printf("apollo-fleet: done clients=%d steps=%d decisions=%d predicts=%d failed_predicts=%d "+
		"p50_predict_us=%.0f p99_predict_us=%.0f posts=%d failed_posts=%d p50_ingest_us=%.0f "+
		"p99_ingest_us=%.0f rows=%d swaps=%d failovers=%d exhausted=%d evictions=%d\n",
		clients, totals.steps, totals.decisions, totals.predicts, totals.failedPredicts,
		predictLat.quantile(0.5), predictLat.quantile(0.99), totals.posts, totals.failedPosts,
		ingestLat.quantile(0.5), ingestLat.quantile(0.99), totals.rows, totals.swaps,
		totals.failovers, totals.exhausted, totals.evictions)
	return totals, nil
}

// runClient is one synthetic deployment: tuner-driven simulated launches
// plus timed serving-path probes, all through a ring-routed FleetClient.
func runClient(ctx context.Context, idx int, peers []fleet.Peer, model string, desc app.Descriptor, problem string,
	size, steps, ranks int, exploreEvery uint64,
	duration, poll, flush, healthEvery time.Duration, noise float64, seed uint64,
	predictLat, ingestLat *latencies, live *liveGauges) (t tally, err error) {
	// Named results: the health checker's eviction count is harvested in a
	// defer after the final return statement has run.
	f, err := client.NewFleet(fleet.PeerMap(peers), client.Options{})
	if err != nil {
		return t, err
	}
	if healthEvery > 0 {
		h := fleet.NewHealth(peers, f.Ring(), fleet.HealthOptions{})
		stop := h.Start(healthEvery)
		defer func() { stop(); t.evictions = h.Evictions() }()
	}

	schema := features.TableI()
	ann := caliper.New()
	src := client.NewSource(f, schema, model, "")
	if err := src.Refresh(); err != nil {
		fmt.Fprintf(os.Stderr, "apollo-fleet: client %d starting degraded: %v\n", idx, err)
	}
	stopPoll := src.StartPolling(poll)
	defer stopPoll()

	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{})
	live.register(f, rec)
	machine := platform.SandyBridgeNode()
	clk := platform.NewSimClock(machine, noise, seed)
	simCtx := raja.NewSimContext(clk, desc.DefaultParams)
	tn := tuner.NewTuner(schema, ann, desc.DefaultParams).
		UseSource(src).
		UseTelemetry(rec).
		ExploreEvery(exploreEvery)
	timer := mpirt.NewTimer(ann, ranks)
	simCtx.Hooks, simCtx.Observe = tn, timer.Observe
	sim, err := desc.New(app.Config{Ctx: simCtx, Ann: ann, Problem: problem, Size: size, Ranks: ranks})
	if err != nil {
		return t, err
	}

	// The upload loop is hand-rolled (not client.Uploader) so every
	// ingest round trip is timed: drain the recorder, post the batch
	// through the ring with failover, measure.
	post := func() {
		frame := rec.Drain(0)
		if frame == nil || frame.Len() == 0 {
			return
		}
		b := telemetry.NewBatch(model, frame)
		t0 := time.Now()
		err := f.PostTelemetry(b)
		ingestLat.add(time.Since(t0))
		t.posts++
		if err != nil {
			t.failedPosts++
		} else {
			t.rows += uint64(frame.Len())
		}
	}

	x := make([]float64, schema.Len())
	ni := schema.Index(features.NumIndices)
	swapsAtStart := src.Swaps()
	start := time.Now()
	lastFlush := start
	for step := 0; (step < steps || time.Since(start) < duration) && ctx.Err() == nil; step++ {
		timer.Step(clk.NowNS, sim.Step) // the scaling experiments' rank model
		t.steps++

		// One decision probe per step: the ring owner's cached model,
		// walked in process (fetched, or failed over, only when the owner
		// has none cached).
		x[ni] = float64(int(64) << (step % 8))
		t0 := time.Now()
		_, err := f.Predict(model, x)
		predictLat.add(time.Since(t0))
		t.predicts++
		if err != nil {
			t.failedPredicts++
		}

		if time.Since(lastFlush) >= flush {
			post()
			lastFlush = time.Now()
		}
		if duration > 0 && step >= steps {
			// Past the minimum step count we only keep the loop alive for
			// -duration; pace to the service cadence instead of spinning.
			select {
			case <-ctx.Done():
			case <-time.After(flush / 4):
			}
		}
	}
	post()

	t.decisions = int(tn.Decisions())
	t.swaps = src.Swaps() - swapsAtStart
	t.failovers = f.Failovers()
	t.exhausted = f.Exhausted()
	return t, nil
}
