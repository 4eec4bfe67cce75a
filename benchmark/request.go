package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"apollo/internal/dataset"
	"apollo/internal/stats"
	"apollo/internal/telemetry"
)

// The request phase: reads beside writes on one service.
//
// Phase A is an open loop: uploaders, pollers and many independent
// application processes send on their own timers, whatever the service
// is doing. Every request has a due time on a fixed schedule and its
// latency is timed from that due time, so a stall delays (and is charged
// to) every request queued behind it. Phases B and C are closed loops of
// one connection per CPU, each waiting for its reply, as a thin caller
// does: they give capacity.

type reqKind uint8

const (
	kindPredict reqKind = iota
	kindBatch
	kindIngest
	kindGet
	kindPut
	kindNoop   // GET /healthz: the service's own no-op, what a request costs before the handler does anything
	kindRef    // no request at all: the load worker decodes the small reference body, the reference of the predict ratios
	kindDecode // no request at all: the load worker decodes an ingest body itself, the reference of the ingest ratio
	numKinds
)

var kindNames = [numKinds]string{"predict", "batch", "ingest", "get", "put", "noop", "ref", "decode"}

// event is one scheduled request of the open loop and, once sent, its
// outcome. Each event is written by the one worker that claimed it.
type event struct {
	kind    reqKind
	due     time.Duration // open loop: scheduled send time, an offset from the phase start
	sent    time.Duration // when the request was actually sent
	done    time.Duration // when its reply had been read
	window  int           // closed loop: the alternation window it started in
	status  int
	version int      // model version the reply named
	classes []int    // predicted classes, in request order
	vectors []vecRef // predict vectors, kept for the oracle
	which   int      // kindPut: index of the model published
	err     error
}

// schedule lays the request classes and the reference operation on their
// fixed cadences and merges them by due time. Classes are offset by a
// fraction of their own period so no two are ever due at the same instant.
func schedule(d time.Duration) []event {
	var evs []event
	add := func(kind reqKind, period time.Duration, phase float64) {
		for t := time.Duration(phase * float64(period)); t < d; t += period {
			evs = append(evs, event{kind: kind, due: t})
		}
	}
	add(kindPredict, time.Second/predictRate, 0)
	add(kindBatch, time.Second/batchRate, 0.31)
	add(kindIngest, time.Second/ingestRate, 0.47)
	add(kindGet, time.Second/getRate, 0.59)
	add(kindNoop, time.Second/noopRate, 0.73)
	add(kindRef, time.Second/refRate, 0.83)
	add(kindPut, putEvery, 0.5)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	return evs
}

// spinWindow is how close to an event's due time a load worker stops
// sleeping and starts yielding in a loop.
const spinWindow = 100 * time.Microsecond

// waitUntil blocks until the phase clock reads due (or ctx ends). It
// sleeps in the kernel, not on a Go timer: a Go timer on an otherwise
// idle P fires up to a millisecond late (the netpoller's timeout is in
// milliseconds), several times the latency being measured, while
// nanosleep overshoots by the kernel's 50 us timer slack and gives the
// CPU to the service meanwhile. Sleeps are cut into slices so a
// cancelled context is seen promptly.
func waitUntil(ctx context.Context, start time.Time, due time.Duration) {
	const slice = 20 * time.Millisecond
	for ctx.Err() == nil {
		d := due - time.Since(start) - spinWindow
		if d <= 0 {
			break
		}
		if d > slice {
			d = slice
		}
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep (EINTR) just goes round the loop again.
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			break
		}
	}
	for time.Since(start) < due && ctx.Err() == nil {
		runtime.Gosched()
	}
}

// versionLog maps a served model version to the model the benchmark
// published under it, for the predict oracle.
type versionLog struct {
	mu    sync.Mutex
	which map[int]int
	etag  atomic.Pointer[string]
}

func (v *versionLog) note(version, which int, etag string) {
	v.mu.Lock()
	v.which[version] = which
	v.mu.Unlock()
	v.etag.Store(&etag)
}

func (v *versionLog) lookup(version int) (int, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	w, ok := v.which[version]
	return w, ok
}

// predictReply is the part of a POST /predict reply the oracle reads.
type predictReply struct {
	Version int   `json:"version"`
	Class   *int  `json:"class"`
	Classes []int `json:"classes"`
}

// putReply is the part of a PUT /models reply the benchmark reads.
type putReply struct {
	Version int `json:"version"`
}

// loadWorker is the per-goroutine state of the load generator.
type loadWorker struct {
	hc    *http.Client
	url   string
	in    *requestInputs
	hot   float64
	rng   *dataset.RNG
	body  []byte
	x     []float64 // scratch for one vector
	buf   bytes.Buffer
	log   *versionLog
	batch [][]byte // pre-encoded telemetry bodies, sent round-robin
	sent  int
}

func (w *loadWorker) vectors(n int) []vecRef {
	out := make([]vecRef, n)
	for i := range out {
		out[i] = w.in.vector(w.rng, w.hot)
	}
	return out
}

// predict sends one POST /predict of vectors and fills ev's outcome.
func (w *loadWorker) predict(ctx context.Context, ev *event) {
	w.body, w.x = w.in.predictBody(w.body, w.x, modelServe, ev.vectors)
	rep, err := do(ctx, w.hc, http.MethodPost, w.url+"/predict", "", w.body, &w.buf)
	if err != nil {
		ev.err = err
		return
	}
	ev.status = rep.status
	if rep.status != http.StatusOK {
		return
	}
	var pr predictReply
	if err := json.Unmarshal(rep.body, &pr); err != nil {
		ev.err = fmt.Errorf("decoding predict reply %q: %w", rep.body, err)
		return
	}
	ev.version = pr.Version
	if pr.Class != nil {
		ev.classes = []int{*pr.Class}
	} else {
		ev.classes = pr.Classes
	}
}

// ingest sends the next pre-encoded telemetry batch.
func (w *loadWorker) ingest(ctx context.Context, ev *event) {
	body := w.batch[w.sent%len(w.batch)]
	w.sent++
	rep, err := do(ctx, w.hc, http.MethodPost, w.url+"/telemetry", "", body, &w.buf)
	ev.status, ev.err = rep.status, err
}

// noop sends the service's no-op request.
func (w *loadWorker) noop(ctx context.Context, ev *event) {
	rep, err := do(ctx, w.hc, http.MethodGet, w.url+"/healthz", "", nil, &w.buf)
	ev.status, ev.err = rep.status, err
}

// reference decodes the small reference body: processor-bound work the
// predict latencies are expressed as multiples of.
func (w *loadWorker) reference(ev *event) {
	_, ev.err = bareDecode(w.in.ref)
}

// decode is the ingest reference: the work a bare consumer of the same
// body does, with no service in the way.
func (w *loadWorker) decode(ev *event) {
	body := w.batch[w.sent%len(w.batch)]
	w.sent++
	_, ev.err = bareDecode(body)
}

// send performs ev's request.
func (w *loadWorker) send(ctx context.Context, ev *event, puts *atomic.Int64) {
	switch ev.kind {
	case kindPredict:
		ev.vectors = w.vectors(1)
		w.predict(ctx, ev)
	case kindBatch:
		ev.vectors = w.vectors(batchSize)
		w.predict(ctx, ev)
	case kindIngest:
		w.ingest(ctx, ev)
	case kindNoop:
		w.noop(ctx, ev)
	case kindRef:
		w.reference(ev)
	case kindGet:
		rep, err := do(ctx, w.hc, http.MethodGet, w.url+"/models/"+modelServe, *w.log.etag.Load(), nil, &w.buf)
		ev.status, ev.err = rep.status, err
	case kindPut:
		// Set-up published models[0], so the first swap installs models[1].
		ev.which = int(puts.Add(1) % 2)
		rep, err := do(ctx, w.hc, http.MethodPut, w.url+"/models/"+modelServe, "", w.in.bodies[ev.which], &w.buf)
		ev.status, ev.err = rep.status, err
		if err != nil || rep.status != http.StatusCreated {
			return
		}
		var pr putReply
		if err := json.Unmarshal(rep.body, &pr); err != nil {
			ev.err = fmt.Errorf("decoding put reply %q: %w", rep.body, err)
			return
		}
		ev.version = pr.Version
		w.log.note(pr.Version, ev.which, rep.etag)
	}
}

// requestResult is what the request phase measured.
type requestResult struct {
	events     []event // phase A, in schedule order
	startA     time.Duration
	predict    pairing // phase B: predict mix against the reference decode
	vectors    int     // vectors predicted in phase B ...
	predictOps int     // ... by this many requests
	ingest     pairing // phase C: ingest against a bare decode of the same body
	hitsBefore float64 // memo counters around phase A
	hitsAfter  float64
	predBefore float64
	predAfter  float64
}

// newWorkers builds one load worker per connection.
func (r *run) newWorkers(env *environment, hc *http.Client, log *versionLog, batches [][]byte, salt uint64) []*loadWorker {
	ws := make([]*loadWorker, loadConns())
	for i := range ws {
		ws[i] = &loadWorker{
			hc: hc, url: env.svc.url, in: env.req, hot: r.w.HotShare, log: log, batch: batches,
			rng: dataset.NewRNG(r.seed ^ salt ^ uint64(i+1)<<32),
		}
	}
	return ws
}

func (r *run) requestPhase(ctx context.Context, env *environment) (*requestResult, error) {
	res := &requestResult{}
	hc := newLoadClient()
	defer hc.CloseIdleConnections()
	entry, ok := env.svc.reg.Get(modelServe)
	if !ok {
		return nil, fmt.Errorf("set-up did not publish %s", modelServe)
	}
	log := &versionLog{which: map[int]int{entry.Version: 0}}
	log.etag.Store(&entry.ETag)
	rng := dataset.NewRNG(r.seed ^ 0xba7c4)
	batchesA, err := encodeBatches(modelServe, env.req.rows, rng, 8, ingestRows)
	if err != nil {
		return nil, err
	}
	batchesC, err := encodeBatches(modelIngest, env.req.rows, rng, 8, ingestRows)
	if err != nil {
		return nil, err
	}

	// Warm the connections and the service's lazy state off the clock.
	warm := r.newWorkers(env, hc, log, batchesA, 0x3a)
	if _, err := r.closedLoop(ctx, warm, 2*pairWindow, func(w *loadWorker, ev *event) {
		ev.kind, ev.vectors = kindPredict, w.vectors(1)
		w.predict(ctx, ev)
	}); err != nil {
		return nil, err
	}

	// Phase A: open loop.
	if r.trace {
		if res.hitsBefore, res.predBefore, err = memoCounters(ctx, env, hc); err != nil {
			return nil, err
		}
	}
	res.events = schedule(r.share(openShare))
	res.startA = time.Since(r.epoch)
	r.openLoop(ctx, res.events, r.newWorkers(env, hc, log, batchesA, 0xa))
	if r.trace {
		if res.hitsAfter, res.predAfter, err = memoCounters(ctx, env, hc); err != nil {
			return nil, err
		}
	}
	r.checkOpenLoop(env, res.events, log)

	// Phase B: closed loop. Even windows send the predict mix of phase A
	// (twenty single-vector requests to one batch), in odd windows the
	// workers decode the reference body.
	const singlesPerBatch = predictRate / batchRate
	evs, err := r.closedLoop(ctx, r.newWorkers(env, hc, log, nil, 0xb), r.share(closedShare),
		func(w *loadWorker, ev *event) {
			if ev.window%2 == 1 {
				ev.kind = kindRef
				w.reference(ev)
				return
			}
			n := 1
			if w.sent%(singlesPerBatch+1) == singlesPerBatch {
				n = batchSize
			}
			w.sent++
			ev.kind, ev.vectors = kindPredict, w.vectors(n)
			w.predict(ctx, ev)
		})
	if err != nil {
		return nil, err
	}
	for i := range evs {
		if evs[i].kind == kindRef {
			if evs[i].err != nil {
				return nil, fmt.Errorf("reference decode: %w", evs[i].err)
			}
			continue
		}
		r.checkPredict(env, &evs[i], log)
		res.vectors += len(evs[i].vectors)
		res.predictOps++
	}
	res.predict = pairWindows(evs)

	// Phase C: closed loop. Even windows post ingest batches, in odd
	// windows the workers decode the same bodies themselves.
	evs, err = r.closedLoop(ctx, r.newWorkers(env, hc, log, batchesC, 0xc), r.share(closedShare),
		func(w *loadWorker, ev *event) {
			if ev.window%2 == 1 {
				ev.kind = kindDecode
				w.decode(ev)
				return
			}
			ev.kind = kindIngest
			w.ingest(ctx, ev)
		})
	if err != nil {
		return nil, err
	}
	for i := range evs {
		if evs[i].kind == kindDecode {
			if evs[i].err != nil {
				return nil, fmt.Errorf("bare decode: %w", evs[i].err)
			}
			continue
		}
		ok := evs[i].err == nil && evs[i].status == http.StatusAccepted
		r.op(ok, "closed-loop ingest: status %d, error %v", evs[i].status, evs[i].err)
		if ok {
			env.acked[modelIngest] += ingestRows
		}
	}
	res.ingest = pairWindows(evs)

	// Read-back oracles: every acknowledged row is on disk. The phase A
	// spool is read through a fresh telemetry.Cursor, as the trainer would;
	// the phase C spool holds too many rows to parse again, so its rows
	// are counted as lines.
	frame, err := telemetry.NewCursor(env.svc.spoolPath(modelServe)).Poll()
	if err != nil {
		return nil, err
	}
	got := 0
	if frame != nil {
		got = frame.Len()
	}
	r.op(got == env.acked[modelServe], "%s spool: cursor reads %d rows, service acknowledged %d",
		modelServe, got, env.acked[modelServe])
	lines, err := spoolRows(env.svc.spoolPath(modelIngest))
	if err != nil {
		return nil, err
	}
	r.op(lines == env.acked[modelIngest], "%s spool: %d row lines on disk, service acknowledged %d",
		modelIngest, lines, env.acked[modelIngest])
	return res, nil
}

// openLoop sends events on schedule from one goroutine per connection.
// Workers claim events in due order from a shared counter, so a worker
// held up by a slow reply delays only the events it would have taken.
func (r *run) openLoop(ctx context.Context, events []event, workers []*loadWorker) {
	var next, puts atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *loadWorker) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(events) {
					return
				}
				ev := &events[i]
				waitUntil(ctx, start, ev.due)
				ev.sent = time.Since(start)
				w.send(ctx, ev, &puts)
				ev.done = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
}

// pairWindow is the alternation period of the closed loops: a measured
// operation and its reference take turns in windows this long, so both
// see the same state of the host — which on a shared machine changes
// speed by half again from one ten-second stretch to the next — and
// their ratio cancels it, as a bare/tuned slice pair does for launches.
const pairWindow = 100 * time.Millisecond

// closedLoop drives one operation at a time per worker for d and returns
// every finished event. send reads ev.window, the index of the pairWindow
// the operation starts in, to choose between the measured operation and
// its reference, and runs on the worker's goroutine; the oracles run on
// the caller's once the clock has stopped.
func (r *run) closedLoop(ctx context.Context, workers []*loadWorker, d time.Duration,
	send func(w *loadWorker, ev *event)) ([]event, error) {
	done := make([][]event, len(workers))
	var wg sync.WaitGroup
	start := time.Now()
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *loadWorker) {
			defer wg.Done()
			for ctx.Err() == nil {
				var ev event
				if ev.sent = time.Since(start); ev.sent >= d {
					return
				}
				ev.window = int(ev.sent / pairWindow)
				send(w, &ev)
				ev.done = time.Since(start)
				done[i] = append(done[i], ev)
			}
		}(i, w)
	}
	wg.Wait()
	var all []event
	for _, evs := range done {
		all = append(all, evs...)
	}
	return all, ctx.Err()
}

// pairing is what a closed loop of alternating windows measured.
type pairing struct {
	ratios     []float64 // per window pair: time per measured operation / time per reference operation
	measuredNS []float64 // per pair: mean time of one measured operation
}

// pairWindows folds a closed loop's events into one ratio per pair of
// adjacent windows (2k measured, 2k+1 reference). Time per operation is
// the mean of the operations that started in the window, over all
// workers. A pair with an empty window (the loop ended inside it) is
// dropped.
func pairWindows(events []event) pairing {
	type acc struct {
		ns float64
		n  int
	}
	var wins []acc
	for i := range events {
		ev := &events[i]
		for len(wins) <= ev.window {
			wins = append(wins, acc{})
		}
		wins[ev.window].ns += float64(ev.done - ev.sent)
		wins[ev.window].n++
	}
	var p pairing
	for k := 0; k+1 < len(wins); k += 2 {
		m, ref := wins[k], wins[k+1]
		if m.n == 0 || ref.n == 0 {
			continue
		}
		p.ratios = append(p.ratios, (m.ns/float64(m.n))/(ref.ns/float64(ref.n)))
		p.measuredNS = append(p.measuredNS, m.ns/float64(m.n))
	}
	return p
}

// checkPredict is the predict oracle: a 200 whose every class equals
// the interpreted core.Model.Predict of the model published under the
// version the reply names.
func (r *run) checkPredict(env *environment, ev *event, log *versionLog) {
	if ev.err != nil || ev.status != http.StatusOK {
		r.op(false, "predict: status %d, error %v", ev.status, ev.err)
		return
	}
	which, known := log.lookup(ev.version)
	if !known || len(ev.classes) != len(ev.vectors) {
		r.op(false, "predict: reply names version %d (known: %v) with %d classes for %d vectors",
			ev.version, known, len(ev.classes), len(ev.vectors))
		return
	}
	oracle := env.req.models[which]
	for i, v := range ev.vectors {
		r.x = env.req.fill(r.x, v)
		if want := oracle.Predict(r.x); ev.classes[i] != want {
			r.op(false, "predict: version %d answered class %d for vector %d, the interpreted tree says %d",
				ev.version, ev.classes[i], i, want)
			return
		}
	}
	r.op(true, "")
}

// checkOpenLoop runs the phase A oracles over every event.
func (r *run) checkOpenLoop(env *environment, events []event, log *versionLog) {
	for i := range events {
		ev := &events[i]
		switch ev.kind {
		case kindPredict, kindBatch:
			r.checkPredict(env, ev, log)
		case kindIngest:
			ok := ev.err == nil && ev.status == http.StatusAccepted
			r.op(ok, "ingest: status %d, error %v", ev.status, ev.err)
			if ok {
				env.acked[modelServe] += ingestRows
			}
		case kindGet:
			// A GET that races a PUT carries the old ETag and is answered
			// 200 with the new model; both are correct.
			ok := ev.err == nil && (ev.status == http.StatusNotModified || ev.status == http.StatusOK)
			r.op(ok, "conditional get: status %d, error %v", ev.status, ev.err)
		case kindPut:
			r.op(ev.err == nil && ev.status == http.StatusCreated, "put: status %d, error %v", ev.status, ev.err)
		case kindNoop:
			r.op(ev.err == nil && ev.status == http.StatusOK, "no-op: status %d, error %v", ev.status, ev.err)
		}
	}
}

// latencies returns done-minus-due of every phase A event of a kind that
// was answered with status, in the given unit.
func (res *requestResult) latencies(kind reqKind, status int, unit time.Duration) []float64 {
	var out []float64
	for i := range res.events {
		ev := &res.events[i]
		if ev.kind == kind && ev.err == nil && ev.status == status {
			out = append(out, float64(ev.done-ev.due)/float64(unit))
		}
	}
	return out
}

// latencyWindow is the length of the windows the open loop's latency
// ratio is the median over.
const latencyWindow = 500 * time.Millisecond

// latencyRatios returns, per latencyWindow of phase A, the median predict
// service time (from send to reply, beside every other class of traffic)
// over the undisturbed time of the reference decodes the load workers made
// in that window, and that reference time itself. The latency from due
// time adds the wait for a free load worker, which on two shared CPUs
// swings by half with the host's state; it is reported in microseconds,
// per layer, with the generator's lateness beside it.
func (res *requestResult) latencyRatios() (ratios, refNS []float64) {
	var predict, ref [][]float64
	for i := range res.events {
		ev := &res.events[i]
		if ev.err != nil || (ev.kind != kindRef && (ev.kind != kindPredict || ev.status != http.StatusOK)) {
			continue
		}
		w := int(ev.due / latencyWindow)
		for len(predict) <= w {
			predict, ref = append(predict, nil), append(ref, nil)
		}
		if ev.kind == kindPredict {
			predict[w] = append(predict[w], float64(ev.done-ev.sent))
		} else {
			ref[w] = append(ref[w], float64(ev.done-ev.sent))
		}
	}
	for w := range predict {
		if len(predict[w]) > 0 && len(ref[w]) > 0 {
			r := undisturbed(ref[w])
			ratios = append(ratios, stats.Median(predict[w])/r)
			refNS = append(refNS, r)
		}
	}
	return ratios, refNS
}

func (res *requestResult) endToEnd(m metrics) {
	lat, _ := res.latencyRatios()
	m.set("predict_latency_ratio", stats.Median(lat), "ratio", len(lat))
	m.set("predict_overhead_ratio", stats.Median(res.predict.ratios), "ratio", len(res.predict.ratios))
	m.set("ingest_overhead_ratio", stats.Median(res.ingest.ratios), "ratio", len(res.ingest.ratios))
}

// spoolRows counts the row lines of a spool directory: every line of
// every segment but each segment's header.
func spoolRows(dir string) (int, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		return 0, err
	}
	rows := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return 0, err
		}
		if n := bytes.Count(data, []byte{'\n'}); n > 0 {
			rows += n - 1
		}
	}
	return rows, nil
}
