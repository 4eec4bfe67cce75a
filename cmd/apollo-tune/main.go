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
// With -wait-swaps N the run keeps stepping (up to -max-steps) until the
// source has swapped N model versions in, so a smoke test can assert the
// full record -> retrain -> hot-swap cycle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"apollo/internal/app"
	"apollo/internal/bg"
	"apollo/internal/caliper"
	"apollo/internal/client"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/harness"
	"apollo/internal/looptrace"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
	"apollo/internal/tuner"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8080", "model service base URL")
	model := flag.String("model", "", "policy model name to tune with (required)")
	appName := flag.String("app", "LULESH", "application: LULESH, CleverLeaf, or ARES")
	problem := flag.String("problem", "sedov", "input deck")
	size := flag.Int("size", 16, "global problem size")
	steps := flag.Int("steps", 50, "timesteps to run")
	maxSteps := flag.Int("max-steps", 0, "hard timestep cap when -wait-swaps keeps the run alive (0 = 20x steps)")
	waitSwaps := flag.Int("wait-swaps", 0, "keep stepping until this many model swaps arrived (0 disables)")
	exploreEvery := flag.Uint64("explore-every", 8, "every n-th launch of a site may run the other policy, within 1/64 of that site's kernel time; 0 disables")
	poll := flag.Duration("poll", 500*time.Millisecond, "model source poll interval")
	flush := flag.Duration("flush", 500*time.Millisecond, "telemetry upload interval")
	noise := flag.Float64("noise", 0.05, "measurement noise amplitude")
	seed := flag.Uint64("seed", 1, "noise seed")
	debugAddr := flag.String("debug-addr", "", "serve the flight-recorder debug endpoints and pprof on this address (empty disables)")
	loopJournal := flag.String("loop-journal", "", "directory for the closed-loop event journal; enables loop tracing")
	flag.Parse()

	if err := run(*serverURL, *model, *appName, *problem, *size, *steps, *maxSteps, *waitSwaps,
		*exploreEvery, *poll, *flush, *noise, *seed, *debugAddr, *loopJournal); err != nil {
		fmt.Fprintln(os.Stderr, "apollo-tune:", err)
		os.Exit(1)
	}
}

func run(serverURL, model, appName, problem string, size, steps, maxSteps, waitSwaps int,
	exploreEvery uint64, poll, flush time.Duration, noise float64, seed uint64,
	debugAddr, loopJournal string) (err error) {
	if model == "" {
		return fmt.Errorf("-model is required")
	}
	desc, err := harness.AppByName(appName)
	if err != nil {
		return err
	}
	if maxSteps <= 0 {
		maxSteps = 20 * steps
	}

	schema := features.TableI()
	ann := caliper.New()
	c := client.New(serverURL, client.Options{})
	src := client.NewSource(c, schema, model, "")
	if loopJournal != "" {
		lt := looptrace.New("tune", looptrace.Options{})
		if err := lt.OpenJournal(loopJournal); err != nil {
			return err
		}
		// Closed last, after the group below has been waited for: the
		// final drain takes the last swap's event.
		defer func() { err = errors.Join(err, lt.Close()) }()
		src.SetTrace(lt)
		fmt.Printf("apollo-tune: loop journal at %s\n", looptrace.JournalPath(loopJournal, "tune"))
	}
	if err := src.Refresh(); err != nil {
		// Degraded start is allowed: the tuner launches on base params
		// and picks the model up when the service appears.
		fmt.Fprintln(os.Stderr, "apollo-tune: starting degraded:", err)
	}

	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{})
	up := client.NewUploader(c, model, rec, client.UploaderOptions{
		// Stamp every batch with the model version (and its loop ID) the
		// tuner is running, so the service can attribute ingested spools.
		Attribution: func() (int, string) {
			cached := c.Cached(model)
			if cached == nil {
				return 0, ""
			}
			loop := ""
			if cached.Lineage != nil {
				loop = cached.Lineage.LoopID
			}
			return cached.Version, loop
		},
	})

	machine := platform.SandyBridgeNode()
	clk := platform.NewSimClock(machine, noise, seed)
	simCtx := raja.NewSimContext(clk, desc.DefaultParams)
	tn := tuner.NewTuner(schema, ann, desc.DefaultParams).
		UseSource(src).
		UseTelemetry(rec).
		ExploreEvery(exploreEvery)
	simCtx.Hooks = tn
	sim, err := desc.New(app.Config{Ctx: simCtx, Ann: ann, Problem: problem, Size: size})
	if err != nil {
		return err
	}

	// The debug listener, the model poll and the telemetry upload start
	// through one group, stopped when the application is done. A failed
	// poll keeps the cached model; a failed upload keeps its rows pending.
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	g := bg.New(ctx, func(loop string, err error) {
		fmt.Fprintf(os.Stderr, "apollo-tune: %s: %v\n", loop, err)
	})
	if debugAddr != "" {
		fr := flight.New(flight.Options{FeatureNames: schema.Names()})
		tn.UseFlight(fr)
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return err
		}
		fmt.Printf("apollo-tune: debug on http://%s/debug/apollo/flight\n", ln.Addr())
		g.Serve("debug", ln, flight.DebugMux(fr))
	}
	g.Every("model-poll", poll, false, src.Refresh)
	g.Every("telemetry-upload", flush, true, up.Flush)

	swapsAtStart := src.Swaps()
	ran := 0
	for ; ran < maxSteps; ran++ {
		if ran >= steps && (waitSwaps == 0 || int(src.Swaps()-swapsAtStart) >= waitSwaps) {
			break
		}
		sim.Step()
		if waitSwaps > 0 && ran >= steps {
			// The app's work is done; we are only waiting on the loop,
			// so pace the extra steps to the service cadence.
			select {
			case <-ctx.Done():
			case <-time.After(poll / 4):
			}
		}
	}

	// The upload loop's last flush ships what the recorder still holds.
	stop()
	if err := g.Wait(); err != nil {
		return err
	}
	var flightRecords uint64
	if fr := tn.Flight(); fr != nil {
		flightRecords = fr.Emitted()
	}
	fmt.Printf("apollo-tune: done steps=%d decisions=%d explored=%d explore_share=%.4f flight_records=%d row_weight=%d recorded=%d dropped=%d uploaded_rows=%d uploaded_batches=%d swaps=%d\n",
		ran, tn.Decisions(), tn.Explored(), tn.ExploreShare(), flightRecords, rec.Weight(), rec.Recorded(), rec.Dropped(),
		up.Rows(), up.Batches(), src.Swaps()-swapsAtStart)
	if waitSwaps > 0 && int(src.Swaps()-swapsAtStart) < waitSwaps {
		return fmt.Errorf("run ended after %d steps with %d swaps, wanted %d",
			ran, src.Swaps()-swapsAtStart, waitSwaps)
	}
	return nil
}
