// Command apollo-serve is the Apollo model service daemon: a versioned,
// disk-backed model registry behind an HTTP JSON API. Training pipelines
// push retrained models to it (apollo-train -push), application processes
// fetch and hot-swap them through the client, and operators can drop
// model files straight into the registry directory — the polling watcher
// publishes them to every connected tuner without a restart.
//
//	apollo-serve -addr 127.0.0.1:8080 -dir ./models
//
//	PUT  /models/{name}   publish (bare model JSON or versioned envelope)
//	GET  /models/{name}   fetch current version (ETag conditional GET)
//	GET  /models          list models
//	POST /predict         evaluate: {"model":..., "x":[...]} |
//	                      {"batch":[[...],...]} | {"features":{name:v}}
//	GET  /healthz         liveness
//	GET  /metrics         Prometheus text format
//
// -debug-addr serves pprof and, with -loop-journal, the loop tracer's
// /debug/apollo/loop on a listener of its own. A /predict answer is not
// a launch decision and leaves no flight record: decisions are recorded
// where they are made, in the tuner, so the listener mounts no
// /debug/apollo/flight.
//
// Fleet mode: -id names this replica and -peers lists the others
// (id=url pairs). The replica then polls its peers' model lists every
// -sync and pulls any strictly newer version, so a champion published on
// one replica converges on all of them with its version and content
// ETag intact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"apollo/internal/bg"
	"apollo/internal/fleet"
	"apollo/internal/flight"
	"apollo/internal/looptrace"
	"apollo/internal/registry"
	"apollo/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	dir := flag.String("dir", "apollo-models", "registry directory (versioned model files)")
	poll := flag.Duration("poll", 2*time.Second, "watcher poll interval for external model-file changes (0 disables)")
	telemetry := flag.String("telemetry", "", "telemetry spool directory; enables POST /telemetry ingestion")
	debugAddr := flag.String("debug-addr", "", "serve pprof and /debug/apollo/loop on this separate address (empty disables)")
	id := flag.String("id", "", "fleet replica id (used to skip self in -peers)")
	peers := flag.String("peers", "", "fleet peers as comma-separated id=url pairs; enables model sync")
	sync := flag.Duration("sync", 2*time.Second, "fleet model-sync poll interval")
	loopJournal := flag.String("loop-journal", "", "directory for the closed-loop event journal; enables loop tracing and /debug/apollo/loop")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, *dir, *telemetry, *debugAddr, *id, *peers, *loopJournal, *poll, *sync, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "apollo-serve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled. ready and debugReady, if non-nil,
// are called with the bound listener addresses once each server is
// accepting connections (tests and port-0 wrappers use them to learn the
// actual ports).
func run(ctx context.Context, addr, dir, telemetryDir, debugAddr, id, peerSpec, loopJournal string,
	poll, sync time.Duration, ready, debugReady func(net.Addr)) error {
	reg, err := registry.Open(dir)
	if err != nil {
		return err
	}
	// The watcher skips a dropped-in file it cannot accept (corrupt, or
	// a model contradicting its own header); say so, once per revision.
	reg.SetLogf(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "apollo-serve: "+format+"\n", args...)
	})
	peers, err := fleet.ParsePeers(peerSpec)
	if err != nil {
		return err
	}
	// Operators hand every replica the same -peers list; each one skips
	// itself by -id so it never pulls its own publishes.
	peers = slices.DeleteFunc(peers, func(p fleet.Peer) bool { return p.ID == id })
	var opts []server.Option
	if telemetryDir != "" {
		opts = append(opts, server.WithTelemetryDir(telemetryDir))
	}
	var tr *looptrace.Tracer
	if loopJournal != "" {
		actor := "serve"
		if id != "" {
			actor = "serve:" + id
		}
		tr = looptrace.New(actor, looptrace.Options{})
		if err := tr.OpenJournal(loopJournal); err != nil {
			return err
		}
		opts = append(opts, server.WithLoopTrace(tr))
		fmt.Printf("apollo-serve: loop journal at %s\n", looptrace.JournalPath(loopJournal, actor))
	}
	srv := server.New(reg, opts...)
	// The stop order, on every way out: the group waited for (listeners
	// drained, loops stopped, journal flushed), then the spools sealed, then
	// the journal closed — its last drain takes what the handlers emitted.
	closeAll := func(err error) error {
		return errors.Join(err, srv.CloseSpools(), tr.Close())
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return closeAll(err)
	}
	// The resolved address line is machine-readable: smoke tests and
	// wrapper scripts parse it to find a port-0 listener.
	fmt.Printf("apollo-serve: listening on http://%s (registry %s, %d models)\n",
		ln.Addr(), dir, reg.Len())
	if ready != nil {
		ready(ln.Addr())
	}
	var dln net.Listener
	if debugAddr != "" {
		// The debug surface (pprof, the loop tracer) lives on its own
		// listener so operators can firewall it separately from the API.
		if dln, err = net.Listen("tcp", debugAddr); err != nil {
			return closeAll(errors.Join(err, ln.Close()))
		}
		fmt.Printf("apollo-serve: debug on http://%s/debug/pprof/\n", dln.Addr())
		if debugReady != nil {
			debugReady(dln.Addr())
		}
	}

	// Everything below starts through one group; what a loop's step fails
	// with is logged and counted here.
	g := bg.New(ctx, func(loop string, err error) {
		fmt.Fprintf(os.Stderr, "apollo-serve: %s: %v\n", loop, err)
		srv.Metrics().CounterAdd("apollo_bg_step_errors_total", "loop", loop,
			"Background loop steps that returned an error, by loop.", 1)
	})
	g.Serve("api", ln, srv.Handler())
	if dln != nil {
		dmux := flight.DebugMux(nil)
		looptrace.RegisterDebug(dmux, tr)
		g.Serve("debug", dln, dmux)
	}
	if tr != nil {
		g.Every("loop-journal", time.Second, true, tr.Flush)
	}
	g.Go("registry-watch", func(ctx context.Context) error {
		reg.Watch(ctx, poll, func(n int) {
			srv.NoteReload(n)
			fmt.Printf("apollo-serve: hot-reloaded %d model(s) from %s\n", n, dir)
		})
		return nil
	})
	if len(peers) > 0 {
		sn := fleet.NewSyncer(reg, peers, fleet.SyncerOptions{
			Logf: func(format string, args ...any) {
				fmt.Printf("apollo-serve: "+format+"\n", args...)
			},
			Trace: tr,
		})
		fmt.Printf("apollo-serve: syncing models from %d peer(s) every %v\n", len(peers), sync)
		g.Every("peer-sync", sync, false, func() error {
			// A pulled model is a hot reload from the fleet's point of view:
			// connected tuners pick it up on their next conditional GET.
			if n := sn.SyncOnce(); n > 0 {
				srv.NoteReload(n)
			}
			sn.ExportMetrics(srv.Metrics())
			return nil
		})
	}
	g.Go("signal", func(ctx context.Context) error {
		<-ctx.Done()
		fmt.Println("apollo-serve: shutting down")
		return nil
	})
	return closeAll(g.Wait())
}
