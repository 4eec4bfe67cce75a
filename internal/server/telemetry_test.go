package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/journal"
	"apollo/internal/registry"
	"apollo/internal/telemetry"
)

// testBatch builds a valid batch in the capture layout of the test
// model's schema.
func testBatch(t *testing.T, model string, rows [][]float64) *telemetry.Batch {
	t.Helper()
	cols := core.RecordColumns(testModel(t).Schema)
	f := dataset.NewFrame(cols...)
	for _, r := range rows {
		full := make([]float64, len(cols))
		copy(full, r)
		f.AddRow(full)
	}
	return telemetry.NewBatch(model, f)
}

func postBatch(t *testing.T, url string, b *telemetry.Batch) *http.Response {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/telemetry", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func TestTelemetryIngestSpoolsAndCounts(t *testing.T) {
	dir := t.TempDir()
	reg := registry.New()
	srv := New(reg, WithTelemetryDir(dir))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	putModel(t, ts, "app/policy", testModel(t))
	resp := postBatch(t, ts.URL, testBatch(t, "app/policy", [][]float64{{100}, {200}}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %s", resp.Status)
	}

	// Rows landed in the model's spool, tailable by a cursor.
	cur := telemetry.NewCursor(filepath.Join(dir, "app", "policy"))
	if err := srv.CloseSpools(); err != nil {
		t.Fatal(err)
	}
	frame, err := cur.Poll()
	if err != nil || frame == nil || frame.Len() != 2 {
		t.Fatalf("spool poll = %v, %v; want 2 rows", frame, err)
	}

	mt := metricsText(t, ts)
	for _, want := range []string{
		`apollo_telemetry_batches_total{model="app/policy"} 1`,
		`apollo_telemetry_rows_total{model="app/policy"} 2`,
		`apollo_ingest_stage_seconds_count{stage="read"} 1`,
		`apollo_ingest_stage_seconds_count{stage="decode"} 1`,
		`apollo_ingest_stage_seconds_count{stage="append"} 1`,
	} {
		if !strings.Contains(mt, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestTelemetryIngestRejections(t *testing.T) {
	reg := registry.New()
	srv := New(reg, WithTelemetryDir(t.TempDir()))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	putModel(t, ts, "app/policy", testModel(t))

	// Tampered schema hash.
	b := testBatch(t, "app/policy", [][]float64{{1}})
	b.SchemaHash = "0000000000000000"
	if resp := postBatch(t, ts.URL, b); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad hash: status %s", resp.Status)
	}

	// Columns that cannot retrain the registered model.
	narrow := dataset.NewFrame("bogus", "time_ns")
	narrow.AddRow([]float64{1, 2})
	if resp := postBatch(t, ts.URL, telemetry.NewBatch("app/policy", narrow)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("schema mismatch: status %s", resp.Status)
	}

	// Path traversal in the model name.
	if resp := postBatch(t, ts.URL, testBatch(t, "../../etc/cron", [][]float64{{1}})); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("traversal name: status %s", resp.Status)
	}

	mt := metricsText(t, ts)
	for _, want := range []string{
		`apollo_telemetry_rejected_total{reason="invalid"} 1`,
		`apollo_telemetry_rejected_total{reason="schema"} 1`,
		`apollo_telemetry_rejected_total{reason="name"} 1`,
	} {
		if !strings.Contains(mt, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A model not yet registered is accepted (trainer bootstrap).
	if resp := postBatch(t, ts.URL, testBatch(t, "new/model", [][]float64{{1}})); resp.StatusCode != http.StatusAccepted {
		t.Errorf("unregistered model: status %s", resp.Status)
	}

	// Bytes after the batch, a repeated member and a row that is not
	// numbers do not decode; a body over the cap is refused as too large,
	// not cut short and misread.
	valid, err := json.Marshal(testBatch(t, "app/policy", [][]float64{{1}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"trailing bytes", append(append([]byte{}, valid...), "garbage"...), http.StatusBadRequest},
		{"second batch", append(append([]byte{}, valid...), valid...), http.StatusBadRequest},
		{"repeated member", bytes.Replace(valid, []byte(`{`), []byte(`{"rows":[],`), 1), http.StatusBadRequest},
		{"string in a row", bytes.Replace(valid, []byte(`"rows":[[1,`), []byte(`"rows":[["1",`), 1), http.StatusBadRequest},
		{"oversize", append(append([]byte{}, valid...), bytes.Repeat([]byte{' '}, maxModelBytes)...), http.StatusRequestEntityTooLarge},
	} {
		// Straight into the handler: a server that answers before it has
		// read 16 MiB may reset the connection under a real client.
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/telemetry", bytes.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.status)
		}
	}
	mt = metricsText(t, ts)
	for _, want := range []string{
		`apollo_telemetry_rejected_total{reason="decode"} 4`,
		`apollo_telemetry_rejected_total{reason="too_large"} 1`,
	} {
		if !strings.Contains(mt, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestTelemetryDisabledAnswers503(t *testing.T) {
	ts, _ := newTestServer(t) // no WithTelemetryDir
	resp := postBatch(t, ts.URL, testBatch(t, "app/policy", [][]float64{{1}}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("disabled ingest: status %s", resp.Status)
	}
}

// After CloseSpools a batch is answered 503 and counted as "closed" —
// for a model whose spool was open and for one that never had a spool —
// and nothing is written: no new segment, no new directory. A layout
// mismatch is still the 409 it was.
func TestTelemetryAfterCloseSpoolsAnswers503(t *testing.T) {
	dir := t.TempDir()
	srv := New(registry.New(), WithTelemetryDir(dir))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if resp := postBatch(t, ts.URL, testBatch(t, "app/policy", [][]float64{{1}})); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest before the close: status %s", resp.Status)
	}
	narrow := telemetry.NewBatch("app/policy", dataset.NewFrame("only"))
	if resp := postBatch(t, ts.URL, narrow); resp.StatusCode != http.StatusConflict {
		t.Errorf("another layout before the close: status %s, want 409", resp.Status)
	}
	if err := srv.CloseSpools(); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"app/policy", "late/policy"} {
		resp := postBatch(t, ts.URL, testBatch(t, model, [][]float64{{2}}))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s after CloseSpools: status %s, want 503", model, resp.Status)
		}
	}
	if want := `apollo_telemetry_rejected_total{reason="closed"} 2`; !strings.Contains(metricsText(t, ts), want) {
		t.Errorf("metrics missing %q", want)
	}
	if segs, _ := journal.Segments(filepath.Join(dir, "app", "policy")); len(segs) != 1 {
		t.Errorf("segments after the refused batch = %v, want the 1 written before the close", segs)
	}
	if _, err := os.Stat(filepath.Join(dir, "late")); !os.IsNotExist(err) {
		t.Errorf("a spool was opened for a model first seen after CloseSpools (%v)", err)
	}
}

// A Go-encoded body ingested over HTTP and the same rows through
// Spool.Append leave byte-identical segment files: the wire row is the
// spool row.
func TestTelemetryIngestWritesAppendsBytes(t *testing.T) {
	dir := t.TempDir()
	srv := New(registry.New(), WithTelemetryDir(dir))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cols := []string{"a", "b<&>", "c", "d"}
	rows := [][]float64{
		{1, math.Copysign(0, -1), 1e-7, 1e21},
		{12345678901234567, 0.30000000000000004, -2.5, 4242.841692428767},
		{3660984585, 1e-6, 1e20, 5e-324},
	}
	frame := dataset.NewFrame(cols...)
	for _, row := range rows {
		frame.AddRow(row)
	}
	for i := 0; i < 2; i++ { // the second batch follows the first in one segment
		if resp := postBatch(t, ts.URL, telemetry.NewBatch("wire", frame)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %s", resp.Status)
		}
	}
	if err := srv.CloseSpools(); err != nil {
		t.Fatal(err)
	}
	direct, err := telemetry.OpenSpool(filepath.Join(dir, "direct"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := direct.Append(cols, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}
	wire, err := os.ReadFile(filepath.Join(dir, "wire", "seg-00000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "direct", "seg-00000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, want) || bytes.Count(wire, []byte("\n")) != 1+2*len(rows) {
		t.Errorf("ingest wrote\n%s\nSpool.Append wrote\n%s", wire, want)
	}
}

// Eight clients ingest distinct batches into one model while a cursor
// tails the spool: every acknowledged row is read exactly once and no
// line is torn by another batch's.
func TestTelemetryIngestConcurrentWithTailingCursor(t *testing.T) {
	const clients, batches, rowsPerBatch = 8, 12, 16
	dir := t.TempDir()
	srv := New(registry.New(), WithTelemetryDir(dir))
	h := srv.Handler()
	cur := telemetry.NewCursor(filepath.Join(dir, "shared"))

	var wg sync.WaitGroup
	var acked atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				frame := dataset.NewFrame("id", "client", "pad")
				for r := 0; r < rowsPerBatch; r++ {
					frame.AddRow([]float64{float64((c*batches+b)*rowsPerBatch + r), float64(c), 0.5 + float64(r)})
				}
				body, err := json.Marshal(telemetry.NewBatch("shared", frame))
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/telemetry", bytes.NewReader(body)))
				if rec.Code != http.StatusAccepted {
					t.Errorf("client %d batch %d: status %d: %s", c, b, rec.Code, rec.Body)
					return
				}
				acked.Add(rowsPerBatch)
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	seen := map[float64]bool{}
	read := func() {
		frame, err := cur.Poll()
		if err != nil {
			t.Fatalf("tailing the spool: %v", err)
		}
		for i := 0; frame != nil && i < frame.Len(); i++ {
			row := frame.Row(i)
			if seen[row[0]] {
				t.Fatalf("row %v read twice", row[0])
			}
			seen[row[0]] = true
			if want := 0.5 + float64(int(row[0])%rowsPerBatch); row[1] != float64(int(row[0])/(batches*rowsPerBatch)) || row[2] != want {
				t.Fatalf("row %v is not a row any client sent", row)
			}
		}
	}
	for tailing := true; tailing; {
		select {
		case <-done:
			tailing = false
		default:
		}
		read()
	}
	if err := srv.CloseSpools(); err != nil {
		t.Fatal(err)
	}
	read()
	if int64(len(seen)) != acked.Load() || len(seen) != clients*batches*rowsPerBatch {
		t.Errorf("cursor read %d rows, service acknowledged %d, clients sent %d", len(seen), acked.Load(), clients*batches*rowsPerBatch)
	}
}

// ingestBody is a Go-encoded batch of 256 rows of 44 columns shaped like
// Table I telemetry rows, as the repository benchmark and real recorders
// send them: one-digit counts, 10-digit FNV codes for func and
// problem_name, a measured time of 15–17 significant digits last.
func ingestBody(tb testing.TB, model string) []byte {
	tb.Helper()
	cols := make([]string, 44)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	frame := dataset.NewFrame(cols...)
	rng := dataset.NewRNG(1)
	row := make([]float64, len(cols))
	for i := 0; i < 256; i++ {
		for j := range row {
			row[j] = float64(rng.Intn(10))
		}
		row[0], row[39] = 1e9+3*float64(rng.Intn(1e9)), 1e9+3*float64(rng.Intn(1e9))
		row[len(row)-1] = 4000 * (1 + rng.Float64())
		frame.AddRow(row)
	}
	body, err := json.Marshal(telemetry.NewBatch(model, frame))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkIngestHandler times POST /telemetry from the handler's first
// line to its last on a response recorder: no socket.
func BenchmarkIngestHandler(b *testing.B) {
	srv := New(registry.New(), WithTelemetryDir(b.TempDir()))
	h := srv.Handler()
	body := ingestBody(b, "bench/model")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/telemetry", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	if err := srv.CloseSpools(); err != nil {
		b.Fatal(err)
	}
}
