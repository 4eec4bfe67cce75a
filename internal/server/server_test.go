package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/registry"
)

// testModel trains a small policy model with the usual seq/omp crossover.
func testModel(t testing.TB) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 256, 2048, 16384, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			if pol == raja.SeqExec {
				row[schema.Len()+2] = float64(n) * 10
			} else {
				row[schema.Len()+2] = 8000 + float64(n)*10/8
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestServer(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New()
	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func putModel(t *testing.T, ts *httptest.Server, name string, m *core.Model) modelInfo {
	t.Helper()
	body, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/models/"+name, bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %s", resp.Status)
	}
	var mi modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&mi); err != nil {
		t.Fatal(err)
	}
	return mi
}

func TestPutGetRoundTripWithETag(t *testing.T) {
	ts, _ := newTestServer(t)
	m := testModel(t)
	mi := putModel(t, ts, "lulesh/execution_policy", m)
	if mi.Version != 1 || mi.SchemaHash != m.SchemaHash() {
		t.Errorf("publish info wrong: %+v", mi)
	}

	resp, err := http.Get(ts.URL + "/models/lulesh/execution_policy")
	if err != nil {
		t.Fatal(err)
	}
	var env core.Envelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if env.Version != 1 || env.Name != "lulesh/execution_policy" {
		t.Errorf("envelope = %+v", env)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" || resp.Header.Get("X-Apollo-Model-Version") != "1" {
		t.Error("missing ETag / version headers")
	}

	// Conditional GET: unchanged model answers 304 with no body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/models/lulesh/execution_policy", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("conditional GET status %s, want 304", resp2.Status)
	}

	// Republish changes the ETag, so the same conditional GET now hits.
	putModel(t, ts, "lulesh/execution_policy", m)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("stale conditional GET status %s, want 200", resp3.Status)
	}
}

func TestGetUnknownModel404sAndBadPut400s(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/models/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown = %s, want 404", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/models/bad", strings.NewReader("{"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT garbage = %s, want 400", resp2.Status)
	}
}

func TestPredictSingleBatchAndFeatures(t *testing.T) {
	ts, _ := newTestServer(t)
	m := testModel(t)
	putModel(t, ts, "policy", m)
	small := make([]float64, m.Schema.Len())
	small[m.Schema.Index(features.NumIndices)] = 32
	large := make([]float64, m.Schema.Len())
	large[m.Schema.Index(features.NumIndices)] = 131072

	post := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %s", resp.Status)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	vec := func(x []float64) string {
		b, _ := json.Marshal(x)
		return string(b)
	}

	if out := post(fmt.Sprintf(`{"model":"policy","x":%s}`, vec(small))); out["class"].(float64) != float64(raja.SeqExec) {
		t.Errorf("small vector class = %v, want seq", out["class"])
	}
	out := post(fmt.Sprintf(`{"model":"policy","batch":[%s,%s]}`, vec(small), vec(large)))
	classes := out["classes"].([]any)
	if len(classes) != 2 || classes[0].(float64) != float64(raja.SeqExec) || classes[1].(float64) != float64(raja.OmpParallelForExec) {
		t.Errorf("batch classes = %v", classes)
	}
	out = post(`{"model":"policy","features":{"num_indices":131072}}`)
	if out["label"] != raja.OmpParallelForExec.String() {
		t.Errorf("features predict label = %v", out["label"])
	}

	// Malformed requests are rejected cleanly.
	for _, bad := range []string{
		`{"model":"policy"}`,
		`{"model":"policy","x":[1]}`,
		`{"model":"policy","x":[1],"batch":[[1]]}`,
		`{"model":"policy","features":{"warp_size":1}}`,
		`{"model":"missing","x":[]}`,
	} {
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("bad request %s accepted", bad)
		}
	}
}

// POST /predict reads one JSON object and nothing after it, and tells a
// body over the cap from a malformed one.
func TestPredictRejectsTrailingBytesAndOversizeBodies(t *testing.T) {
	reg := registry.New()
	h := New(reg).Handler()
	m := testModel(t)
	if _, err := reg.Publish("policy", m); err != nil {
		t.Fatal(err)
	}
	x, _ := json.Marshal(make([]float64, m.Schema.Len()))
	valid := fmt.Sprintf(`{"model":"policy","x":%s}`, x)
	for _, tc := range []struct {
		body   string
		status int
	}{
		{valid, http.StatusOK},
		{valid + " \n", http.StatusOK},
		{valid + "garbage", http.StatusBadRequest},
		{valid + valid, http.StatusBadRequest},
		{strings.Replace(valid, `{`, `{"x":[],`, 1), http.StatusBadRequest},
		{valid + strings.Repeat(" ", maxModelBytes), http.StatusRequestEntityTooLarge},
	} {
		// Straight into the handler: a server that answers before it has
		// read 16 MiB may reset the connection under a real client.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%.60q (%d bytes): status %d, want %d", tc.body, len(tc.body), rec.Code, tc.status)
		}
	}
	// What a hostile body grew past the cap is dropped, not pooled.
	sc := new(scratch)
	if !sc.poolable() {
		t.Error("a fresh scratch is not pooled")
	}
	if sc.body.Grow(maxPooledBytes + 1); sc.poolable() {
		t.Error("a scratch holding a body buffer over the cap is pooled")
	}
	if sc = (&scratch{predict: predictBody{flat: make([]float64, maxPooledBytes/8+1)}}); sc.poolable() {
		t.Error("a scratch holding vectors over the cap is pooled")
	}
}

// TestPredictCompiledOffsetsAndStats covers the compiled decision path
// end to end at the server: the model listing exposes compilation stats,
// a single predict answers the interpreted walk's class, and a batch
// request runs every one of its vectors — seen before or not — through
// the compiled batch walk (batched counter) while agreeing with
// single-vector answers.
func TestPredictCompiledOffsetsAndStats(t *testing.T) {
	reg := registry.New()
	srv := New(reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	m := testModel(t)
	mi := putModel(t, ts, "policy", m)
	if mi.Compiled.Nodes == 0 || mi.Compiled.Depth == 0 {
		t.Fatalf("publish info lacks compiled stats: %+v", mi.Compiled)
	}
	if mi.Compiled.FlatBytes != mi.Compiled.Internal*24 {
		t.Errorf("flat_bytes = %d, want %d", mi.Compiled.FlatBytes, mi.Compiled.Internal*24)
	}

	post := func(body []byte) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %s", resp.Status)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Single predict: the response reports the interpreted walk's class.
	x := make([]float64, m.Schema.Len())
	x[m.Schema.Index(features.NumIndices)] = 131072
	body, _ := json.Marshal(map[string]any{"model": "policy", "x": x})
	if got, want := post(body)["class"].(float64), m.Predict(x); got != float64(want) {
		t.Errorf("response class %g != interpreted walk's %d", got, want)
	}

	// Batch of fresh vectors plus the one just answered: all of them go
	// through the compiled batch walk, consistent with single-vector
	// predictions.
	batch := make([][]float64, 6, 7)
	for i := range batch {
		v := make([]float64, m.Schema.Len())
		v[m.Schema.Index(features.NumIndices)] = float64(int(64) << (2 * i))
		batch[i] = v
	}
	batch = append(batch, x)
	single := make([]float64, len(batch))
	body, _ = json.Marshal(map[string]any{"model": "policy", "batch": batch})
	classes := post(body)["classes"].([]any)
	if len(classes) != len(batch) {
		t.Fatalf("batch returned %d classes, want %d", len(classes), len(batch))
	}
	for i, v := range batch {
		body, _ = json.Marshal(map[string]any{"model": "policy", "x": v})
		single[i] = post(body)["class"].(float64)
		if classes[i].(float64) != single[i] {
			t.Errorf("vector %d: batch class %v != single class %g", i, classes[i], single[i])
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	samples := parsePrometheus(t, string(raw))
	if got := samples["apollo_predict_batched_total"]; got != float64(len(batch)) {
		t.Errorf("apollo_predict_batched_total = %g, want %d", got, len(batch))
	}

	// The model listing carries the same compiled stats as publish.
	resp, err = http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []modelInfo `json:"models"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Models) != 1 {
		t.Fatalf("model listing: %+v (%v)", list.Models, err)
	}
	if list.Models[0].Compiled != mi.Compiled {
		t.Errorf("listing stats %+v != publish stats %+v", list.Models[0].Compiled, mi.Compiled)
	}
}

func TestListAndHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	putModel(t, ts, "a/policy", testModel(t))
	putModel(t, ts, "b/policy", testModel(t))
	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []modelInfo `json:"models"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 2 || list.Models[0].Name != "a/policy" {
		t.Errorf("list = %+v", list.Models)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	err = json.NewDecoder(hz.Body).Decode(&health)
	hz.Body.Close()
	if err != nil || health.Status != "ok" || health.Models != 2 {
		t.Errorf("healthz = %+v (%v)", health, err)
	}
}

// parsePrometheus reads the text exposition format into sample name
// (with labels) -> value.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestMetricsEndpointExposesCountersAndHistograms(t *testing.T) {
	srv := New(registry.New())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	m := testModel(t)
	putModel(t, ts, "policy", m)

	// Two identical predictions: each is evaluated — same class, no
	// hit/miss difference between them.
	x := make([]float64, m.Schema.Len())
	x[m.Schema.Index(features.NumIndices)] = 42
	body, _ := json.Marshal(map[string]any{"model": "policy", "x": x})
	var classes [2]float64
	for i := range classes {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Class float64 `json:"class"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		classes[i] = out.Class
	}
	if classes[0] != classes[1] {
		t.Errorf("identical predicts answered classes %v", classes)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(strings.Builder)
	if _, err := io.Copy(raw, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	samples := parsePrometheus(t, raw.String())

	checks := map[string]float64{
		`apollo_http_requests_total{handler="models_put"}`: 1,
		`apollo_http_requests_total{handler="predict"}`:    2,
		`apollo_predictions_total`:                         2,
		`apollo_model_publishes_total{model="policy"}`:     1,
		`apollo_model_version{model="policy"}`:             1,
	}
	for name, want := range checks {
		if got, ok := samples[name]; !ok || got != want {
			t.Errorf("%s = %g (present=%v), want %g", name, got, ok, want)
		}
	}
	// Histogram invariants: count matches instrumented requests, +Inf
	// bucket is cumulative-total, sum is positive.
	count := samples["apollo_http_request_duration_seconds_count"]
	if count < 3 {
		t.Errorf("histogram count = %g, want >= 3", count)
	}
	if inf := samples[`apollo_http_request_duration_seconds_bucket{le="+Inf"}`]; inf != count {
		t.Errorf("+Inf bucket %g != count %g", inf, count)
	}
	if samples["apollo_http_request_duration_seconds_sum"] <= 0 {
		t.Error("histogram sum not positive")
	}
	// Buckets are monotone non-decreasing in le order.
	var bounds []float64
	for name := range samples {
		if strings.HasPrefix(name, `apollo_http_request_duration_seconds_bucket{le="`) && !strings.Contains(name, "+Inf") {
			b, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(name,
				`apollo_http_request_duration_seconds_bucket{le="`), `"}`), 64)
			if err != nil {
				t.Fatal(err)
			}
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	prev := -1.0
	for _, b := range bounds {
		cur := samples[fmt.Sprintf(`apollo_http_request_duration_seconds_bucket{le=%q}`, strconv.FormatFloat(b, 'g', -1, 64))]
		if cur < prev {
			t.Errorf("bucket le=%g count %g below previous %g", b, cur, prev)
		}
		prev = cur
	}
}

// A vector's prediction is one walk of the entry's compiled tree: no
// memo key to build, nothing allocated per call.
func TestPredictAllocationFree(t *testing.T) {
	reg := registry.New()
	m := testModel(t)
	e, err := reg.Publish("policy", m)
	if err != nil {
		t.Fatal(err)
	}
	ni := m.Schema.Index(features.NumIndices)
	x := make([]float64, m.Schema.Len())
	i := 0.0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		x[ni] = i * 997
		if got, want := e.Compiled.Predict(x), m.Predict(x); got != want {
			t.Fatalf("predict = %d, interpreted reference = %d", got, want)
		}
	})
	if allocs != 0 {
		t.Errorf("a compiled predict allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkServerPredict prices what POST /predict runs per vector — one
// walk of the entry's compiled tree — on a repeated vector and on
// never-repeating ones (the two cases the deleted memo used to tell
// apart).
func BenchmarkServerPredict(b *testing.B) {
	reg := registry.New()
	m := testModel(b)
	e, err := reg.Publish("policy", m)
	if err != nil {
		b.Fatal(err)
	}
	ni := m.Schema.Index(features.NumIndices)
	x := make([]float64, m.Schema.Len())
	for j := range x {
		x[j] = 1000 / float64(j+3) // fractions, as mix and blackboard features are
	}
	for _, fresh := range []bool{false, true} {
		name := "repeat"
		if fresh {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sink := 0
			for i := 0; i < b.N; i++ {
				if fresh {
					x[ni] = float64(i)
				}
				sink += e.Compiled.Predict(x)
			}
			_ = sink
		})
	}
}
