package main

import (
	"context"
	"fmt"
	"time"

	"apollo/internal/caliper"
	"apollo/internal/client"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/stats"
	"apollo/internal/telemetry"
	"apollo/internal/trainer"
	"apollo/internal/tuner"
)

// The loop phase: the closed loop with its cadences removed.
//
// Set-up left the service spool holding one full trainer window. Each
// cycle the benchmark pushes a deliberately stale champion (omp
// everywhere) and refreshes it into a live tuner, posts fresh telemetry,
// then drives trainer.Step and Source.Refresh synchronously — no poll
// interval anywhere — and probes Tuner.Begin on a small launch. Reaction
// is timed from the last ingest acknowledgement to the probe returning
// the retrained decision: poll, label, drift, fit, duel, publish, fetch,
// swap.

// cycle is the measured part of one loop cycle.
type cycle struct {
	start, posted, stepped, refreshed, probed time.Duration // offsets from the run epoch
	pushed, calibrated                        time.Duration
	refNS                                     float64 // undisturbed bare decode of refBody, measured around the reaction
	res                                       *trainer.Result
}

type loopResult struct {
	cycles    []cycle // the first (cold: it polls the whole window) excluded
	cold      cycle
	publishes uint64
	rejects   uint64
	window    int
}

// probeIters is the size of the launch the loop probes: small enough that
// the window's telemetry says seq and the stale champion says omp.
const probeIters = 8

func (r *run) loopPhase(ctx context.Context, env *environment) (*loopResult, error) {
	schema := features.TableI()
	src := client.NewSource(env.cl, schema, modelLoop, "")
	tn := tuner.NewTuner(schema, caliper.New(), raja.Params{Policy: raja.OmpParallelForExec}).UseSource(src)
	kernel := raja.NewKernel("bench::probe", nil)
	iset := raja.NewRange(0, probeIters)
	probe := func() raja.Policy {
		p, _ := tn.Begin(kernel, iset)
		return p.Policy
	}
	// The trainer daemon's wiring: a cursor on the service's spool, and a
	// publisher that goes through the service's HTTP API.
	tr, err := trainer.New(
		telemetry.NewCursor(env.svc.spoolPath(modelLoop)),
		trainer.NewClientPublisher(client.New(env.svc.url, client.Options{})),
		trainer.Config{Name: modelLoop, Schema: schema, MaxWindowRows: r.w.WindowRows, Seed: r.seed})
	if err != nil {
		return nil, err
	}

	res := &loopResult{window: r.w.WindowRows}
	since := func() time.Duration { return time.Since(r.epoch) }
	cycles := int(r.share(loopShare).Seconds() / r.w.CycleSeconds)
	if cycles < minCycles {
		cycles = minCycles
	}
	// Cycle 0 is cold (its step polls the whole window) and not measured.
	for n := 0; n <= cycles; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var c cycle
		c.start = since()
		stale, err := env.cl.Push(modelLoop, env.loop.stale)
		if err != nil {
			return nil, fmt.Errorf("pushing the stale champion: %w", err)
		}
		if err := src.Refresh(); err != nil {
			return nil, err
		}
		before := probe()
		swaps := src.Swaps()
		c.pushed = since()
		// The cycle's reference brackets the reaction — half the decodes
		// before the fresh rows go out, half after the probe — so that it
		// is next to the reaction in time on both sides but not inside it.
		var ref []float64
		reference := func() error {
			for i := 0; i < refDecodes; i++ {
				d, err := bareDecode(env.refBody)
				if err != nil {
					return err
				}
				ref = append(ref, float64(d))
			}
			return nil
		}
		if err := reference(); err != nil {
			return nil, err
		}
		c.calibrated = since()
		if err := env.postRows(ctx, modelLoop, env.loop.rows(freshRows)); err != nil {
			return nil, err
		}
		c.posted = since()
		if c.res, err = tr.Step(); err != nil {
			return nil, err
		}
		c.stepped = since()
		if err := src.Refresh(); err != nil {
			return nil, err
		}
		c.refreshed = since()
		after := probe()
		c.probed = since()
		if err := reference(); err != nil {
			return nil, err
		}
		c.refNS = undisturbed(ref)

		parent := -1
		if cached := env.cl.Cached(modelLoop); cached != nil && cached.Lineage != nil {
			parent = cached.Lineage.ParentVersion
		}
		r.op(before == raja.OmpParallelForExec && c.res.Published && c.res.ParentVersion == stale &&
			parent == stale && src.Swaps() == swaps+1 && after == raja.SeqExec,
			"loop cycle %d: stale v%d probed %v; step published=%v parent=v%d trigger=%v; lineage parent v%d; swaps %d->%d; probe after %v",
			n, stale, before, c.res.Published, c.res.ParentVersion, c.res.Trigger, parent, swaps, src.Swaps(), after)
		if n == 0 {
			res.cold = c
		} else {
			res.cycles = append(res.cycles, c)
		}
	}
	res.publishes, res.rejects = tr.Publishes(), tr.Rejects()
	return res, nil
}

// minCycles is the fewest measured loop cycles of a run; refDecodes is how
// many bare decodes a cycle makes on each side of its reaction.
const (
	minCycles  = 3
	refDecodes = 3
)

func (lp *loopResult) endToEnd(m metrics) {
	var ratio []float64
	for _, c := range lp.cycles {
		ratio = append(ratio, float64(c.probed-c.posted)/c.refNS)
	}
	m.set("loop_reaction_ratio", stats.Median(ratio), "ratio", len(ratio))
}
