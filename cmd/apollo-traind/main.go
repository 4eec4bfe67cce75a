// Command apollo-traind is the continuous-training daemon that closes
// Apollo's loop. It tails the telemetry spool that apollo-serve
// -telemetry writes, watches the deployed champion for drift (mispredict
// rate against observed-fastest variants, feature-distribution shift),
// retrains a challenger on the spooled window when drift fires, and
// publishes it back to the model service only if it does not regress the
// champion on held-out telemetry. Every connected tuner then hot-swaps
// to the new model through the ordinary client polling path.
//
//	apollo-traind -server http://127.0.0.1:8080 -spool ./spool \
//	    -model lulesh/policy -interval 5s
//
// With -once the daemon runs a single poll-check-retrain step and exits,
// which makes it scriptable (cron, CI smoke tests). -debug-addr serves
// the loop counters in Prometheus text format at /metrics, beside pprof
// and /debug/apollo/loop.
//
// -spool is one spool root or a fleet's: id=dir pairs naming every
// replica's spool root, whose union the trainer tails, so the window
// holds the whole fleet's observations of the model (collective
// training). -replicas takes id=url pairs; each replica's current
// champion becomes a publish incumbent the challenger must beat on the
// holdout before shipping.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"apollo/internal/bg"
	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/features"
	"apollo/internal/fleet"
	"apollo/internal/flight"
	"apollo/internal/looptrace"
	"apollo/internal/metrics"
	"apollo/internal/telemetry"
	"apollo/internal/trainer"
)

// daemonConfig is everything run needs; main fills it from flags, tests
// fill it directly.
type daemonConfig struct {
	serverURL string
	spool     string // a spool root, or id=dir per replica spool root
	replicas  string // collective: id=url per replica service
	model     string
	param     string
	interval  time.Duration
	once      bool

	debugAddr   string
	loopJournal string

	debugReady func(net.Addr)
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.serverURL, "server", "http://127.0.0.1:8080", "model service base URL (publish target)")
	flag.StringVar(&cfg.spool, "spool", "apollo-spool", "telemetry spool root (apollo-serve -telemetry dir), or replicas' roots as comma-separated id=dir pairs")
	flag.StringVar(&cfg.replicas, "replicas", "", "collective training: comma-separated id=url fleet replicas whose champions gate publishes")
	flag.StringVar(&cfg.model, "model", "", "model name to keep trained (required)")
	flag.StringVar(&cfg.param, "param", "execution_policy", "parameter to train: execution_policy or chunk_size")
	flag.DurationVar(&cfg.interval, "interval", 5*time.Second, "poll-check-retrain cadence")
	flag.BoolVar(&cfg.once, "once", false, "run one step and exit")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /metrics, pprof and /debug/apollo/loop on this address (empty disables)")
	flag.StringVar(&cfg.loopJournal, "loop-journal", "", "directory for the closed-loop event journal; enables loop tracing and /debug/apollo/loop")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "apollo-traind:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg daemonConfig) error {
	model := cfg.model
	if model == "" {
		return fmt.Errorf("-model is required")
	}
	var p core.Parameter
	switch cfg.param {
	case "execution_policy":
		p = core.ExecutionPolicy
	case "chunk_size":
		p = core.ChunkSize
	default:
		return fmt.Errorf("unknown -param %q", cfg.param)
	}

	roots, err := fleet.ParsePeers(cfg.spool)
	if err != nil {
		return fmt.Errorf("-spool: %w", err)
	}
	sources := make(map[string]string, len(roots))
	for _, r := range roots {
		sources[r.ID] = filepath.Join(r.Base, filepath.FromSlash(model))
	}
	cur, err := telemetry.NewFleetCursor(sources)
	if err != nil {
		return fmt.Errorf("-spool: %w", err)
	}
	if len(sources) > 1 {
		fmt.Printf("apollo-traind: collective training over %d spools\n", len(sources))
	}

	var incumbents []trainer.Publisher
	if cfg.replicas != "" {
		peers, err := fleet.ParsePeers(cfg.replicas)
		if err != nil {
			return fmt.Errorf("-replicas: %w", err)
		}
		for _, peer := range peers {
			incumbents = append(incumbents,
				trainer.NewClientPublisher(client.New(peer.Base, client.Options{})))
		}
		fmt.Printf("apollo-traind: publishes gated on %d replica incumbents\n", len(incumbents))
	}

	var lt *looptrace.Tracer
	if cfg.loopJournal != "" {
		lt = looptrace.New("traind", looptrace.Options{})
		if err := lt.OpenJournal(cfg.loopJournal); err != nil {
			return err
		}
		fmt.Printf("apollo-traind: loop journal at %s\n", looptrace.JournalPath(cfg.loopJournal, "traind"))
	}

	pub := trainer.NewClientPublisher(client.New(cfg.serverURL, client.Options{}))
	tr, err := trainer.New(cur, pub, trainer.Config{
		Name:       model,
		Param:      p,
		Schema:     features.TableI(),
		Incumbents: incumbents,
		ID:         "traind",
		Trace:      lt,
		Logf: func(format string, args ...any) {
			fmt.Printf("apollo-traind: "+format+"\n", args...)
		},
	})
	if err != nil {
		return errors.Join(err, lt.Close())
	}

	met := metrics.New()
	rc := metrics.NewRuntimeCollector(met)

	// Every listener and loop starts through one group; what a loop's step
	// fails with is logged and counted here.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	g := bg.New(ctx, func(loop string, err error) {
		fmt.Fprintf(os.Stderr, "apollo-traind: %s: %v\n", loop, err)
		met.CounterAdd("apollo_bg_step_errors_total", "loop", loop,
			"Background loop steps that returned an error, by loop.", 1)
	})
	// finish is every way out from here: the group waited for (listeners
	// drained, loops stopped), then the journal closed after a last drain.
	finish := func(err error) error {
		if err != nil {
			stop() // a failed start or step: there is no signal to wait for
		}
		return errors.Join(err, g.Wait(), lt.Close())
	}
	if lt != nil {
		g.Every("loop-journal", time.Second, true, lt.Flush)
	}
	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return finish(err)
		}
		fmt.Printf("apollo-traind: debug on http://%s/debug/pprof/\n", dln.Addr())
		if cfg.debugReady != nil {
			cfg.debugReady(dln.Addr())
		}
		dmux := flight.DebugMux(nil)
		looptrace.RegisterDebug(dmux, lt)
		dmux.Handle("GET /metrics", metrics.Handler(met, rc.Collect))
		g.Serve("debug", dln, dmux)
	}

	step := func() error {
		t0 := flight.Now()
		res, err := tr.Step()
		stepNS := float64(flight.Now() - t0)
		exportSources(met, cur)
		if err != nil {
			return err
		}
		gauge := func(name, help string, v int64) {
			met.GaugeSet(name, "model", model, help, v)
		}
		gauge("apollo_trainer_window_rows", "Telemetry rows in the training window.", int64(res.WindowRows))
		gauge("apollo_trainer_drift_triggers_total", "Drift triggers fired.", int64(tr.Triggers()))
		gauge("apollo_trainer_retrains_total", "Challengers trained.", int64(tr.Retrains()))
		gauge("apollo_trainer_publishes_total", "Challengers published.", int64(tr.Publishes()))
		gauge("apollo_trainer_rejects_total", "Challengers rejected by the holdout duel.", int64(tr.Rejects()))
		gauge("apollo_trainer_incumbent_vetoes_total", "Publishes blocked by a fleet incumbent.", int64(tr.Vetoes()))
		const stageHelp = "Closed-loop stage durations, by stage."
		met.ObserveLabeled("apollo_loop_stage_seconds", "stage", "step", stageHelp, stepNS/1e9)
		met.ObserveLabeled("apollo_loop_stage_seconds", "stage", "poll", stageHelp, res.PollNS/1e9)
		if res.NewRows > 0 {
			met.ObserveLabeled("apollo_loop_stage_seconds", "stage", "label", stageHelp, res.LabelNS/1e9)
		}
		if res.Retrained {
			met.ObserveLabeled("apollo_loop_stage_seconds", "stage", "retrain", stageHelp, res.RetrainNS/1e9)
		}
		if res.DuelNS > 0 {
			met.ObserveLabeled("apollo_loop_stage_seconds", "stage", "duel", stageHelp, res.DuelNS/1e9)
		}
		if res.Published {
			met.ObserveLabeled("apollo_loop_stage_seconds", "stage", "publish", stageHelp, res.PublishNS/1e9)
			met.GaugeSet("apollo_model_lineage", "model,version,parent,loop",
				fmt.Sprintf("%s,%d,%d,%s", model, res.Version, res.ParentVersion, res.LoopID),
				"Model provenance info-series: the loop that trained each published version and the parent it replaced.", 1)
		}
		if cfg.once || res.NewRows > 0 {
			fmt.Printf("apollo-traind: step new_rows=%d window=%d trigger=%v retrained=%v published=%v version=%d\n",
				res.NewRows, res.WindowRows, res.Trigger != nil, res.Retrained, res.Published, res.Version)
		}
		return nil
	}

	if cfg.once {
		err := step()
		stop()
		return finish(err)
	}
	fmt.Printf("apollo-traind: watching %s for %s every %v\n", cfg.spool, model, cfg.interval)
	// One bad poll must not kill the daemon: the next tick tries again.
	g.Every("step", cfg.interval, false, step)
	g.Go("signal", func(ctx context.Context) error {
		<-ctx.Done()
		fmt.Println("apollo-traind: shutting down")
		return nil
	})
	return finish(nil)
}

// exportSources refreshes the merge gauges from what cur has read: rows
// and lag per source spool, and failed source reads.
func exportSources(met *metrics.Metrics, cur *telemetry.Cursor) {
	sources, failed := cur.Stats()
	now := time.Now()
	for _, src := range sources {
		met.GaugeSet("apollo_fleet_merge_rows_total", "source", src.Name,
			"Telemetry rows merged into the collective window, by source spool.", int64(src.Rows))
		met.GaugeSet("apollo_fleet_merge_lag_seconds", "source", src.Name,
			"Seconds since each source spool last yielded rows.", int64(now.Sub(src.LastYield).Seconds()))
	}
	met.GaugeSet("apollo_fleet_merge_errors_total", "", "",
		"Failed per-source polls while merging the collective window.", int64(failed))
}
