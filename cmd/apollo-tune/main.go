// Command apollo-tune runs a proxy application live against the model
// service — the deployed half of the closed loop. The tuner fetches the
// named policy model, decides every kernel launch through it, records
// sampled (features, parameters, runtime) telemetry, explores the
// non-chosen variant within a per-site share of kernel time so the
// telemetry carries counterfactuals, and uploads batches to the service's
// spool. While it runs, it polls for retrained models and hot-swaps them.
//
//	apollo-tune -server http://127.0.0.1:8080 -model lulesh/policy \
//	    -app LULESH -problem sedov -size 16 -steps 50
//
// -server is one URL or a fleet of replicas as id=url pairs. Either way
// the client routes through a consistent-hash ring (of one, for a bare
// URL) that fails over to the next member; over several replicas it also
// probes their /healthz every -poll and evicts the dead. -clients N runs
// N such deployments at once, each with its own source, tuner, recorder
// and uploader — a client fleet that must ride out a replica kill:
//
//	apollo-tune -server "r1=http://:8081,r2=http://:8082,r3=http://:8083" \
//	    -model lulesh/policy -clients 8 -steps 40 -duration 10s
//
// With -wait-swaps N every client keeps stepping (up to -max-steps) until
// its source has swapped N model versions in, so a smoke test can assert
// the full record -> retrain -> hot-swap cycle; -duration keeps it
// stepping for a wall-clock time. The final "apollo-tune: done ..." line
// is key=value, summed over the clients; the loop, flight and fleet
// smokes assert on it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"apollo/internal/app"
	"apollo/internal/bg"
	"apollo/internal/caliper"
	"apollo/internal/client"
	"apollo/internal/features"
	"apollo/internal/fleet"
	"apollo/internal/flight"
	"apollo/internal/harness"
	"apollo/internal/looptrace"
	"apollo/internal/metrics"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
	"apollo/internal/tuner"
)

// flags is the command line.
type flags struct {
	server, model, app, problem      string
	size, steps, maxSteps, waitSwaps int
	duration                         time.Duration
	clients                          int
	exploreEvery                     uint64
	poll, flush                      time.Duration
	noise                            float64
	seed                             uint64
	debugAddr, loopJournal           string
}

func main() {
	var f flags
	flag.StringVar(&f.server, "server", "http://127.0.0.1:8080", "model service base URL, or replicas as comma-separated id=url pairs")
	flag.StringVar(&f.model, "model", "", "policy model name to tune with (required)")
	flag.StringVar(&f.app, "app", "LULESH", "application: LULESH, CleverLeaf, or ARES")
	flag.StringVar(&f.problem, "problem", "sedov", "input deck")
	flag.IntVar(&f.size, "size", 16, "global problem size")
	flag.IntVar(&f.steps, "steps", 50, "timesteps to run")
	flag.IntVar(&f.maxSteps, "max-steps", 0, "hard timestep cap when -wait-swaps or -duration keeps the run alive (0 = 20x steps)")
	flag.IntVar(&f.waitSwaps, "wait-swaps", 0, "keep stepping until this many model swaps arrived (0 disables)")
	flag.DurationVar(&f.duration, "duration", 0, "keep stepping until this much wall-clock time has passed (0 disables)")
	flag.IntVar(&f.clients, "clients", 1, "concurrent deployments, client i seeded seed+i")
	flag.Uint64Var(&f.exploreEvery, "explore-every", 8, "every n-th launch of a site may run the other policy, within 1/64 of that site's kernel time; 0 disables")
	flag.DurationVar(&f.poll, "poll", 500*time.Millisecond, "model source poll and replica health-probe interval")
	flag.DurationVar(&f.flush, "flush", 500*time.Millisecond, "telemetry upload interval")
	flag.Float64Var(&f.noise, "noise", 0.05, "measurement noise amplitude")
	flag.Uint64Var(&f.seed, "seed", 1, "noise seed")
	flag.StringVar(&f.debugAddr, "debug-addr", "", "serve /metrics, the flight-recorder debug endpoints and pprof on this address (empty disables)")
	flag.StringVar(&f.loopJournal, "loop-journal", "", "directory for the closed-loop event journal; enables loop tracing")
	flag.Parse()

	if _, err := run(f, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apollo-tune:", err)
		os.Exit(1)
	}
}

// deployment is one client: an application stepping under a tuner that
// decides through a ring-routed model source and ships its telemetry
// through an uploader. Its counters are read once its loops are joined.
type deployment struct {
	fc     *client.FleetClient
	health *fleet.Health // nil on a ring of one
	src    *client.Source
	rec    *telemetry.Recorder
	up     *client.Uploader
	tn     *tuner.Tuner
	sim    app.Sim

	swapsAtStart  uint64
	steps         int
	refreshErrors int
	uploadErrors  int
}

// summary is the done line: every count summed over the clients.
type summary struct {
	clients, steps                  int
	decisions, explored             uint64
	exploreShare                    float64 // the largest client's: the bound is per tuner
	flightRecords                   uint64
	recorded, dropped               uint64
	uploadedRows, uploadedBatches   uint64
	swaps                           uint64
	failovers, exhausted, evictions uint64
	refreshErrors, uploadErrors     int
}

func run(f flags, out io.Writer) (sum summary, err error) {
	if f.model == "" {
		return sum, fmt.Errorf("-model is required")
	}
	peers, err := fleet.ParsePeers(f.server)
	if err != nil {
		return sum, err
	}
	if len(peers) == 0 {
		return sum, fmt.Errorf("-server is required")
	}
	desc, err := harness.AppByName(f.app)
	if err != nil {
		return sum, err
	}
	if f.clients < 1 {
		return sum, fmt.Errorf("-clients %d: want at least 1", f.clients)
	}
	if f.maxSteps <= 0 {
		f.maxSteps = 20 * f.steps
	}

	var lt *looptrace.Tracer
	if f.loopJournal != "" {
		lt = looptrace.New("tune", looptrace.Options{})
		if err := lt.OpenJournal(f.loopJournal); err != nil {
			return sum, err
		}
		// Closed last, after the group below has been waited for: the
		// final drain takes the last swap's event.
		defer func() { err = errors.Join(err, lt.Close()) }()
		fmt.Fprintf(out, "apollo-tune: loop journal at %s\n", looptrace.JournalPath(f.loopJournal, "tune"))
	}
	deps := make([]*deployment, f.clients)
	for i := range deps {
		if deps[i], err = deploy(i, peers, desc, f, lt); err != nil {
			return sum, err
		}
	}

	// The debug listener, every client's loops and its application start
	// through one group, stopped once every application is done. A failed
	// poll keeps the cached model; a failed upload keeps its rows pending.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	g := bg.New(ctx, func(loop string, err error) {
		fmt.Fprintf(os.Stderr, "apollo-tune: %s: %v\n", loop, err)
	})
	if f.debugAddr != "" {
		// Client 0 alone carries the flight recorder: tuners whose
		// projectors differ would ping-pong its decoder's generations.
		fr := flight.New(flight.Options{FeatureNames: features.TableI().Names()})
		deps[0].tn.UseFlight(fr)
		ln, err := net.Listen("tcp", f.debugAddr)
		if err != nil {
			return sum, err
		}
		fmt.Fprintf(out, "apollo-tune: debug on http://%s/debug/apollo/flight\n", ln.Addr())
		g.Serve("debug", ln, debugMux(fr, deps))
	}
	var apps []<-chan struct{}
	for i, d := range deps {
		name := ""
		if f.clients > 1 {
			name = fmt.Sprintf("client %d ", i)
		}
		g.Every(name+"model-poll", f.poll, false, d.refresh)
		g.Every(name+"telemetry-upload", f.flush, true, d.flush)
		if d.health != nil {
			g.Every(name+"health", f.poll, false, func() error { d.health.CheckOnce(); return nil })
		}
		apps = append(apps, g.Go(name+"app", func(ctx context.Context) error {
			d.step(ctx, f)
			return nil
		}))
	}
	for _, done := range apps {
		<-done
	}
	// Each upload loop's last flush ships what its recorder still holds.
	stop()
	if err := g.Wait(); err != nil {
		return sum, err
	}

	sum.clients = f.clients
	if fr := deps[0].tn.Flight(); fr != nil {
		sum.flightRecords = fr.Emitted()
	}
	for _, d := range deps {
		sum.steps += d.steps
		sum.decisions += d.tn.Decisions()
		sum.explored += d.tn.Explored()
		sum.exploreShare = max(sum.exploreShare, d.tn.ExploreShare())
		sum.recorded += d.rec.Recorded()
		sum.dropped += d.rec.Dropped()
		sum.uploadedRows += d.up.Rows()
		sum.uploadedBatches += d.up.Batches()
		sum.swaps += d.swaps()
		sum.failovers += d.fc.Failovers()
		sum.exhausted += d.fc.Exhausted()
		if d.health != nil {
			sum.evictions += d.health.Evictions()
		}
		sum.refreshErrors += d.refreshErrors
		sum.uploadErrors += d.uploadErrors
	}
	fmt.Fprintf(out, "apollo-tune: done steps=%d decisions=%d explored=%d explore_share=%.4f flight_records=%d "+
		"recorded=%d dropped=%d uploaded_rows=%d uploaded_batches=%d swaps=%d clients=%d "+
		"failovers=%d exhausted=%d evictions=%d refresh_errors=%d upload_errors=%d\n",
		sum.steps, sum.decisions, sum.explored, sum.exploreShare, sum.flightRecords,
		sum.recorded, sum.dropped, sum.uploadedRows, sum.uploadedBatches, sum.swaps, sum.clients,
		sum.failovers, sum.exhausted, sum.evictions, sum.refreshErrors, sum.uploadErrors)
	for i, d := range deps {
		if int(d.swaps()) < f.waitSwaps {
			return sum, fmt.Errorf("client %d ended after %d steps with %d swaps, wanted %d",
				i, d.steps, d.swaps(), f.waitSwaps)
		}
	}
	return sum, nil
}

// deploy builds client i: its ring over the replicas, source, recorder,
// uploader, tuner and application. Every source shares the loop tracer lt.
func deploy(i int, peers []fleet.Peer, desc app.Descriptor, f flags, lt *looptrace.Tracer) (*deployment, error) {
	fc, err := client.NewFleet(fleet.PeerMap(peers), client.Options{})
	if err != nil {
		return nil, err
	}
	d := &deployment{fc: fc}
	if len(peers) > 1 {
		d.health = fleet.NewHealth(peers, fc.Ring(), fleet.HealthOptions{})
	}
	schema := features.TableI()
	ann := caliper.New()
	d.src = client.NewSource(fc, schema, f.model, "")
	d.src.SetTrace(lt)
	if err := d.refresh(); err != nil {
		// Degraded start is allowed: the tuner launches on base params
		// and picks the model up when the service appears.
		fmt.Fprintf(os.Stderr, "apollo-tune: client %d starting degraded: %v\n", i, err)
	}
	d.swapsAtStart = d.src.Swaps()

	d.rec = telemetry.NewRecorder(schema, ann, telemetry.Options{})
	// Every batch is stamped with the model version (and its loop ID) the
	// tuner is running, so the service can attribute ingested spools.
	d.up = client.NewUploader(fc, f.model, d.rec, client.UploaderOptions{Attribution: d.src.Running})

	clk := platform.NewSimClock(platform.SandyBridgeNode(), f.noise, f.seed+uint64(i))
	simCtx := raja.NewSimContext(clk, desc.DefaultParams)
	d.tn = tuner.NewTuner(schema, ann, desc.DefaultParams).
		UseSource(d.src).
		UseTelemetry(d.rec).
		ExploreEvery(f.exploreEvery)
	simCtx.Hooks = d.tn
	d.sim, err = desc.New(app.Config{Ctx: simCtx, Ann: ann, Problem: f.problem, Size: f.size})
	return d, err
}

// refresh and flush are the client's two loop steps; each counts its
// failures for the done line.
func (d *deployment) refresh() error {
	err := d.src.Refresh()
	if err != nil {
		d.refreshErrors++
	}
	return err
}

func (d *deployment) flush() error {
	err := d.up.Flush()
	if err != nil {
		d.uploadErrors++
	}
	return err
}

func (d *deployment) swaps() uint64 { return d.src.Swaps() - d.swapsAtStart }

// step runs the application for -steps timesteps, then on — paced to
// the service cadence, up to -max-steps — while it waits for -wait-swaps
// model swaps or for -duration to pass.
func (d *deployment) step(ctx context.Context, f flags) {
	start := time.Now()
	for ; d.steps < f.maxSteps && ctx.Err() == nil; d.steps++ {
		waiting := int(d.swaps()) < f.waitSwaps || time.Since(start) < f.duration
		if d.steps >= f.steps && !waiting {
			return
		}
		d.sim.Step()
		if d.steps >= f.steps {
			// The app's work is done; we are only waiting on the loop.
			select {
			case <-ctx.Done():
			case <-time.After(f.poll / 4):
			}
		}
	}
}

// debugMux is the debug listener: the flight recorder's endpoints, pprof,
// and GET /metrics with gauges collected at scrape time — client 0's ring
// membership (every client rings the same replicas), and failovers,
// exhausted requests and telemetry-ring drops summed over the clients.
func debugMux(fr *flight.Recorder, deps []*deployment) *http.ServeMux {
	mux := flight.DebugMux(fr)
	met := metrics.New()
	mux.Handle("GET /metrics", metrics.Handler(met, func() {
		var failovers, exhausted, dropped uint64
		for _, d := range deps {
			failovers += d.fc.Failovers()
			exhausted += d.fc.Exhausted()
			dropped += d.rec.Dropped()
		}
		fleet.ExportRing(met, deps[0].fc.Ring())
		met.GaugeSet("apollo_fleet_failovers_total", "", "",
			"Requests retried on a non-owner replica, over all clients.", int64(failovers))
		met.GaugeSet("apollo_fleet_exhausted_total", "", "",
			"Requests that failed on every replica, over all clients.", int64(exhausted))
		met.GaugeSet("apollo_telemetry_ring_dropped_total", "", "",
			"Sampled launches lost to a full telemetry ring, over all client tuners.", int64(dropped))
	}))
	return mux
}
