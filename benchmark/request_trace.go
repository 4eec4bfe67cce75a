package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"apollo/internal/dataset"
	"apollo/internal/registry"
	"apollo/internal/stats"
	"apollo/internal/telemetry"
)

// memoCounters scrapes the service's /metrics and returns the decision
// memo's hit counter and the predictions counter it is a share of.
func memoCounters(ctx context.Context, env *environment, hc *http.Client) (hits, predictions float64, err error) {
	var buf bytes.Buffer
	rep, err := do(ctx, hc, http.MethodGet, env.svc.url+"/metrics", "", nil, &buf)
	if err != nil {
		return 0, 0, err
	}
	if rep.status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d", rep.status)
	}
	sc := bufio.NewScanner(bytes.NewReader(rep.body))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "apollo_predict_cache_hits_total":
			hits, err = strconv.ParseFloat(value, 64)
		case "apollo_predictions_total":
			predictions, err = strconv.ParseFloat(value, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /metrics line %q: %w", sc.Text(), err)
		}
	}
	return hits, predictions, sc.Err()
}

// handlerProbe times calls straight into the service's handler tree on a
// response recorder: no socket, no net/http connection handling. What an
// end-to-end latency has beyond this number is loopback and net/http,
// which no handler optimisation can buy back.
func handlerProbe(env *environment, calls int, unit time.Duration, want int,
	request func(i int) (method, path, ifNoneMatch string, body []byte)) (float64, error) {
	h := env.svc.srv.Handler()
	per := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		method, path, inm, body := request(i)
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		per = append(per, float64(time.Since(start))/float64(unit))
		if rec.Code != want {
			return 0, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body.Bytes())
		}
	}
	return stats.Median(per), nil
}

// Calls per direct probe of the request and loop waterfalls.
const (
	fastCalls = 2000 // microsecond-scale handlers
	slowCalls = 30   // millisecond-scale operations
)

// requestWaterfall reports the request path's per-layer metrics and
// turns phase A's events into spans.
func (r *run) requestWaterfall(ctx context.Context, env *environment, res *requestResult, m metrics) error {
	in := env.req
	rng := dataset.NewRNG(r.seed ^ 0x77a7e)

	// Spans: one root per open-loop request, from its due time to its
	// reply, split at the moment the generator actually sent it.
	for i := range res.events {
		ev := &res.events[i]
		name := kindNames[ev.kind]
		base := int64(res.startA)
		root := r.spans.add("request."+name, int64(i), -1, base+int64(ev.due), base+int64(ev.done))
		r.spans.add("bench.gen_wait", int64(i), root, base+int64(ev.due), base+int64(ev.sent))
		r.spans.add("http."+name, int64(i), root, base+int64(ev.sent), base+int64(ev.done))
	}
	var late, put []float64
	for i := range res.events {
		ev := &res.events[i]
		late = append(late, float64(ev.sent-ev.due)/float64(time.Microsecond))
		if ev.kind == kindPut {
			put = append(put, float64(ev.done-ev.sent)/float64(time.Millisecond))
		}
	}
	// The absolute numbers behind the request ratios. On a shared host
	// the medians move by half again with the host's state and one burst
	// of interference moves the tails, so they carry no bound.
	predict := res.latencies(kindPredict, http.StatusOK, time.Microsecond)
	m.set("predict_p50_us", stats.Percentile(predict, 50), "us", len(predict))
	m.set("predict_p99_us", stats.Percentile(predict, 99), "us", len(predict))
	ingest := res.latencies(kindIngest, http.StatusAccepted, time.Millisecond)
	m.set("ingest_p50_ms", stats.Percentile(ingest, 50), "ms", len(ingest))
	m.set("ingest_p99_ms", stats.Percentile(ingest, 99), "ms", len(ingest))
	noop := res.latencies(kindNoop, http.StatusOK, time.Microsecond)
	m.set("server.noop_p50_us", stats.Percentile(noop, 50), "us", len(noop))
	_, ref := res.latencyRatios()
	m.set("bench.ref_decode_us", stats.Median(ref)/1e3, "us", len(ref))
	// Closed-loop capacity: operations per second of the measured windows,
	// from the mean time of one operation on each of the connections.
	conns := float64(loadConns())
	perPredict := stats.Median(res.predict.measuredNS) / 1e9
	m.set("predict_vectors_per_s", conns*float64(res.vectors)/float64(res.predictOps)/perPredict, "vec/s", len(res.predict.measuredNS))
	m.set("ingest_rows_per_s", conns*ingestRows/(stats.Median(res.ingest.measuredNS)/1e9), "rows/s", len(res.ingest.measuredNS))
	m.set("bench.gen_late_p99_us", stats.Percentile(late, 99), "us", len(late))
	m.set("server.put_model_ms", stats.Median(put), "ms", len(put))
	m.set("server.memo_hit_ratio", (res.hitsAfter-res.hitsBefore)/(res.predAfter-res.predBefore), "ratio",
		int(res.predAfter-res.predBefore))

	// Handlers, without the socket.
	var body []byte
	var x []float64
	v, err := handlerProbe(env, fastCalls, time.Microsecond, http.StatusOK, func(int) (string, string, string, []byte) {
		body, x = in.predictBody(body, x, modelServe, []vecRef{in.vector(rng, r.w.HotShare)})
		return http.MethodPost, "/predict", "", body
	})
	if err != nil {
		return err
	}
	m.set("server.predict_handler_us", v, "us", fastCalls)
	batch := make([]vecRef, batchSize)
	v, err = handlerProbe(env, fastCalls/10, time.Microsecond, http.StatusOK, func(int) (string, string, string, []byte) {
		for i := range batch {
			batch[i] = in.vector(rng, r.w.HotShare)
		}
		body, x = in.predictBody(body, x, modelServe, batch)
		return http.MethodPost, "/predict", "", body
	})
	if err != nil {
		return err
	}
	m.set("server.batch_handler_us", v, "us", fastCalls/10)
	probeBodies, err := encodeBatches(modelProbe, in.rows, rng, 4, ingestRows)
	if err != nil {
		return err
	}
	v, err = handlerProbe(env, slowCalls, time.Millisecond, http.StatusAccepted, func(i int) (string, string, string, []byte) {
		return http.MethodPost, "/telemetry", "", probeBodies[i%len(probeBodies)]
	})
	if err != nil {
		return err
	}
	m.set("server.ingest_handler_ms", v, "ms", slowCalls)
	entry, ok := env.svc.reg.Get(modelServe)
	if !ok {
		return fmt.Errorf("%s is gone from the registry", modelServe)
	}
	v, err = handlerProbe(env, fastCalls, time.Microsecond, http.StatusNotModified, func(int) (string, string, string, []byte) {
		return http.MethodGet, "/models/" + modelServe, entry.ETag, nil
	})
	if err != nil {
		return err
	}
	m.set("server.models_get_304_us", v, "us", fastCalls)
	v, err = handlerProbe(env, slowCalls, time.Millisecond, http.StatusOK, func(int) (string, string, string, []byte) {
		return http.MethodGet, "/metrics", "", nil
	})
	if err != nil {
		return err
	}
	m.set("metrics.scrape_ms", v, "ms", slowCalls)

	// Registry and compiled tree.
	n := probeCalls
	m.set("registry.get_ns", probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			e, _ := env.svc.reg.Get(modelServe)
			sink += e.Version
		}
	}), "ns", probeRounds*n)
	reg, err := registry.Open(filepath.Join(r.scratch, "probe-registry"))
	if err != nil {
		return err
	}
	var publish []float64
	for i := 0; i < slowCalls; i++ {
		start := time.Now()
		if _, err := reg.Publish(modelProbe, in.models[i%2]); err != nil {
			return err
		}
		publish = append(publish, float64(time.Since(start))/float64(time.Millisecond))
	}
	m.set("registry.publish_ms", stats.Median(publish), "ms", slowCalls)
	var compile []float64
	for i := 0; i < slowCalls; i++ {
		start := time.Now()
		ct, err := in.models[0].Compile()
		if err != nil {
			return err
		}
		compile = append(compile, float64(time.Since(start))/float64(time.Microsecond))
		sink += ct.NumFeatures()
	}
	m.set("ctree.compile_us", stats.Median(compile), "us", slowCalls)
	hot := make([][]float64, len(in.hot))
	for i, p := range in.hot {
		hot[i] = in.pool[p]
	}
	classes := make([]int, len(hot))
	m.set("ctree.predictn_ns_per_vec", probeNS(len(hot), nil, func() {
		entry.Compiled.PredictN(hot, classes)
	}), "ns", probeRounds*len(hot))

	// Spool and batch validation, without the handler.
	var decoded telemetry.Batch
	if err := json.Unmarshal(probeBodies[0], &decoded); err != nil {
		return err
	}
	var validate []float64
	for i := 0; i < fastCalls/10; i++ {
		start := time.Now()
		if err := decoded.Validate(); err != nil {
			return err
		}
		validate = append(validate, float64(time.Since(start))/float64(time.Microsecond))
	}
	m.set("telemetry.batch_validate_us", stats.Median(validate), "us", fastCalls/10)
	spool, err := telemetry.OpenSpool(filepath.Join(r.scratch, "probe-spool"), 0)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < slowCalls; i++ {
		if err := spool.Append(decoded.Columns, decoded.Rows); err != nil {
			return err
		}
	}
	appendS := time.Since(start).Seconds()
	if err := spool.Close(); err != nil {
		return err
	}
	m.set("telemetry.spool_append_rows_per_s", float64(slowCalls*len(decoded.Rows))/appendS, "rows/s", slowCalls)

	// The stock client: the local compiled predict, a revalidating fetch,
	// and a telemetry post (which marshals the batch it is given).
	if _, err := env.cl.Fetch(modelServe); err != nil {
		return err
	}
	var predictErr error
	m.set("client.predict_ns", probeNS(n, nil, func() {
		for i := 0; i < n; i++ {
			c, err := env.cl.Predict(modelServe, hot[i%len(hot)])
			if err != nil {
				predictErr = err
			}
			sink += c
		}
	}), "ns", probeRounds*n)
	if predictErr != nil {
		return predictErr
	}
	var fetch []float64
	for i := 0; i < fastCalls/10; i++ {
		start := time.Now()
		if _, err := env.cl.Fetch(modelServe); err != nil {
			return err
		}
		fetch = append(fetch, float64(time.Since(start))/float64(time.Microsecond))
	}
	m.set("client.fetch_304_us", stats.Median(fetch), "us", len(fetch))
	var post []float64
	for i := 0; i < slowCalls; i++ {
		start := time.Now()
		if err := env.cl.PostTelemetry(&decoded); err != nil {
			return err
		}
		post = append(post, float64(time.Since(start))/float64(time.Millisecond))
	}
	m.set("client.post_telemetry_ms", stats.Median(post), "ms", len(post))
	return nil
}
