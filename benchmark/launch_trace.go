package main

import (
	"fmt"
	"time"

	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/flight"
	"apollo/internal/raja"
	"apollo/internal/stats"
	"apollo/internal/telemetry"
)

// Span names of the launch waterfall. A launch span runs from the moment
// ForAll calls Begin to the moment End returns; its three children tile it.
const (
	spanLaunch = "launch"
	spanBegin  = "tuner.begin"
	spanBody   = "raja.body"
	spanEnd    = "tuner.end"
)

// maxSites bounds the live launch sites kept for the direct layer probes.
const maxSites = 64

// site is one live (kernel, index set) pair seen by the traced hooks.
type site struct {
	k    *raja.Kernel
	iset *raja.IndexSet
}

// launchTrace is what the traced hooks record for one application: the
// spans, running totals (which keep counting once the span buffer is
// full), and a sample of live launch sites for the layer probes.
type launchTrace struct {
	rec      *spanRecorder
	ann      *caliper.Annotations // blackboard of the latest traced slice
	launches int64
	iters    int64
	beginNS  int64
	bodyNS   int64
	endNS    int64
	t0, t1   int64 // Begin's bounds, pending until End
	sites    []site
	seen     map[uint64]bool
}

// launchSpanLimit bounds the spans kept per application: four a launch,
// and a small-deck slice makes tens of thousands of launches.
const launchSpanLimit = 60_000

func newLaunchTrace(epoch time.Time) *launchTrace {
	return &launchTrace{rec: newSpanRecorder(epoch, launchSpanLimit), seen: map[uint64]bool{}}
}

// tracedHooks wraps the tuner's raja.Hooks with the span recorder.
type tracedHooks struct {
	inner raja.Hooks
	lt    *launchTrace
}

func (h *tracedHooks) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	lt := h.lt
	lt.t0 = lt.rec.now()
	p, ok := h.inner.Begin(k, iset)
	lt.t1 = lt.rec.now()
	return p, ok
}

func (h *tracedHooks) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	lt := h.lt
	t2 := lt.rec.now()
	h.inner.End(k, iset, p, elapsedNS)
	t3 := lt.rec.now()
	lt.launches++
	lt.iters += int64(iset.Len())
	lt.beginNS += lt.t1 - lt.t0
	lt.bodyNS += t2 - lt.t1
	lt.endNS += t3 - t2
	parent := lt.rec.add(spanLaunch, lt.launches, -1, lt.t0, t3)
	lt.rec.add(spanBegin, lt.launches, parent, lt.t0, lt.t1)
	lt.rec.add(spanBody, lt.launches, parent, lt.t1, t2)
	lt.rec.add(spanEnd, lt.launches, parent, t2, t3)
	if !lt.seen[k.ID] && len(lt.sites) < maxSites {
		lt.seen[k.ID] = true
		lt.sites = append(lt.sites, site{k: k, iset: iset})
	}
}

// sink keeps the compiler from discarding probed calls.
var sink int

// probeRounds and probeCalls size a layer probe: the reported value is
// the median over rounds of the mean time of calls consecutive calls.
const (
	probeRounds = 9
	probeCalls  = 2048
)

// probeNS times f, which makes calls calls into a layer, and returns the
// median nanoseconds per call over probeRounds rounds. prep, when not
// nil, runs untimed before every round.
func probeNS(calls int, prep, f func()) float64 {
	per := make([]float64, 0, probeRounds)
	for round := 0; round < probeRounds; round++ {
		if prep != nil {
			prep()
		}
		start := time.Now()
		f()
		per = append(per, float64(time.Since(start))/float64(calls))
	}
	return stats.Median(per)
}

// launchLayers times direct calls into every layer of the launch path on
// the live sites (kernel, index set, blackboard) that one application's
// traced slices captured.
func launchLayers(am appModels, lt *launchTrace) (map[string]float64, error) {
	out := map[string]float64{}
	sites := lt.sites
	if len(sites) == 0 {
		return nil, fmt.Errorf("%s: the traced slices saw no launch", am.deck.App)
	}
	schema := features.TableI()
	ann := lt.ann
	n := probeCalls
	at := func(i int) site { return sites[i%len(sites)] }
	buf := make([]float64, schema.Len())

	out["features.extract_ns"] = probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			s := at(i)
			schema.ExtractInto(buf, s.k, s.iset, ann)
		}
	})

	// Pre-extracted vectors, so the model layers are timed alone.
	proj := am.policy.NewProjector(schema)
	compiled := proj.Compiled()
	full := make([][]float64, len(sites))
	own := make([][]float64, len(sites))
	for i, s := range sites {
		full[i] = schema.Extract(s.k, s.iset, ann)
		own[i] = schema.Project(full[i], am.policy.Schema)
	}
	out["core.project_predict_ns"] = probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			sink += proj.Predict(full[i%len(full)])
		}
	})
	if compiled == nil {
		return nil, fmt.Errorf("%s: the policy model did not compile", am.deck.App)
	}
	out["ctree.walk_ns"] = probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			sink += compiled.Predict(own[i%len(own)])
		}
	})
	var offs [flight.MaxOffsets]int32
	out["ctree.predict_offsets_ns"] = probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			c, _ := compiled.PredictOffsets(own[i%len(own)], offs[:])
			sink += c
		}
	})

	// The tuner's own share of Begin: a direct Begin on the stock wiring,
	// less the extraction and the projected predict it calls, all three
	// probed back to back on the same sites.
	single := newTunedWiring(am, ann, false)
	begin := probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			s := at(i)
			p, _ := single.tn.Begin(s.k, s.iset)
			sink += int(p.Policy)
		}
	})
	out["tuner.self_ns"] = begin - out["features.extract_ns"] - out["core.project_predict_ns"]

	// The tuner's two hooks with both a policy and a chunk model installed
	// (the form whose flight records carry TrailSteps), which no slice
	// runs in situ. The ring is emptied before every round, untimed, so
	// End pays the sampled path throughout.
	w := newTunedWiring(am, ann, true)
	out["tuner.begin_dual_ns"] = probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			s := at(i)
			p, _ := w.tn.Begin(s.k, s.iset)
			sink += int(p.Policy)
		}
	})
	p := am.desc.DefaultParams
	out["tuner.end_dual_ns"] = probeNS(n, func() { w.rec.Drain(0) }, func() {
		for i := 0; i < n; i++ {
			s := at(i)
			w.tn.End(s.k, s.iset, p, 1000)
		}
	})

	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1})
	out["telemetry.record_ns"] = probeNS(n, func() { rec.Drain(0) }, func() {
		for i := 0; i < n; i++ {
			s := at(i)
			rec.Record(s.k, s.iset, p, 1000)
		}
	})
	unsampled := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1 << 30})
	out["telemetry.record_unsampled_ns"] = probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			s := at(i)
			unsampled.Record(s.k, s.iset, p, 1000)
		}
	})
	// Drain rate: refill the ring (untimed), then time emptying it.
	var drainNS, drained float64
	for round := 0; round < probeRounds; round++ {
		for i := 0; i < n; i++ {
			s := at(i)
			rec.Record(s.k, s.iset, p, 1000)
		}
		start := time.Now()
		f := rec.Drain(0)
		drainNS += float64(time.Since(start))
		if f != nil {
			drained += float64(f.Len())
		}
	}
	out["telemetry.drain_rows_per_s"] = drained / (drainNS / 1e9)

	fr := flight.New(flight.Options{FeatureNames: schema.Names()})
	out["flight.emit_ns"] = probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			_, tok := fr.Reserve(at(i).k.ID)
			fr.Commit(tok)
		}
	})
	out["flight.now_ns"] = probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			sink += int(flight.Now() & 1)
		}
	})
	return out, nil
}

// launchWaterfall reports the launch path's per-layer metrics: exact
// counts and in-situ span means from the traced slices, Apollo's cost
// per launch per application from the untraced pairs of the same run,
// and the direct layer probes averaged over the three applications.
func (r *run) launchWaterfall(env *environment, apps []appLaunch, m metrics) error {
	var launches, explored uint64
	var tracedLaunches, iters, beginNS, endNS int64
	var ringDrops, flDrops float64
	var bareUS, tunedUS, traceRatio []float64
	layers := map[string][]float64{}
	for i, al := range apps {
		launches += al.launches
		explored += al.explored
		pairs := float64(len(al.ratios))
		ringDrops += float64(al.ringDrops) / pairs
		flDrops += float64(al.flDrops) / pairs
		bare, tuned := stats.Median(al.bareNS), stats.Median(al.tunedNS)
		bareUS = append(bareUS, bare/float64(al.launches)/1e3)
		tunedUS = append(tunedUS, tuned/float64(al.launches)/1e3)
		traceRatio = append(traceRatio, stats.Median(al.tracedNS)/tuned)
		m.set("tuner.apollo_ns_per_launch."+al.name, (tuned-bare)/float64(al.launches), "ns", len(al.ratios))

		lt := al.trace
		tracedLaunches += lt.launches
		iters += lt.iters
		beginNS += lt.beginNS
		endNS += lt.endNS
		r.spans.merge(lt.rec)
		probed, err := launchLayers(env.apps[i], lt)
		if err != nil {
			return err
		}
		for name, v := range probed {
			layers[name] = append(layers[name], v)
		}
	}
	n := int(tracedLaunches)
	m.set("raja.launches", float64(launches), "count", len(apps))
	m.set("raja.iters_per_launch", float64(iters)/float64(tracedLaunches), "count", n)
	m.set("raja.bare_us_per_launch", stats.GeoMean(bareUS), "us", len(apps))
	m.set("raja.tuned_us_per_launch", stats.GeoMean(tunedUS), "us", len(apps))
	m.set("tuner.begin_ns", float64(beginNS)/float64(tracedLaunches), "ns", n)
	m.set("tuner.end_ns", float64(endNS)/float64(tracedLaunches), "ns", n)
	m.set("tuner.explored", float64(explored), "count", len(apps))
	m.set("telemetry.ring_drops", ringDrops, "count", len(apps))
	m.set("flight.drops", flDrops, "count", len(apps))
	m.set("bench.trace_overhead_ratio", stats.GeoMean(traceRatio), "ratio", len(apps))
	for name, vs := range layers {
		unit := "ns"
		if name == "telemetry.drain_rows_per_s" {
			unit = "rows/s"
		}
		m.set(name, stats.Mean(vs), unit, probeRounds*probeCalls*len(vs))
	}
	return nil
}
