package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	_ "unsafe" // go:linkname, for bgReadHeaderTimeout

	"apollo/internal/bg/bgtest"
	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/journal"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

func trainTestModel(t *testing.T) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{16, 128, 1024, 8192, 65536} {
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

// TestServeEndToEnd boots the daemon on a random port, pushes a model,
// exercises the whole HTTP surface, drops a file into the registry
// directory for the watcher to pick up, and shuts down cleanly.
func TestServeEndToEnd(t *testing.T) {
	bgtest.NoLeaks(t)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make(chan net.Addr, 1)
	debugAddrs := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", dir, "", "127.0.0.1:0", "", "", t.TempDir(), 5*time.Millisecond, time.Second,
			func(a net.Addr) { addrs <- a }, func(a net.Addr) { debugAddrs <- a })
	}()
	var base string
	select {
	case a := <-addrs:
		base = "http://" + a.String()
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	var debugBase string
	select {
	case a := <-debugAddrs:
		debugBase = "http://" + a.String()
	case <-time.After(10 * time.Second):
		t.Fatal("debug listener never became ready")
	}

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// Push a model through the client (the apollo-train -push path).
	m := trainTestModel(t)
	c := client.New(base, client.Options{})
	if v, err := c.Push("serve/policy", m); err != nil || v != 1 {
		t.Fatalf("push: v=%d err=%v", v, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "serve", "policy.v1.json")); err != nil {
		t.Fatalf("model not persisted under the registry dir: %v", err)
	}

	// Predict through the HTTP API using the features-map form.
	body := strings.NewReader(`{"model":"serve/policy","features":{"num_indices":16}}`)
	resp, err = http.Post(base+"/predict", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Class int `json:"class"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Class != int(raja.SeqExec) {
		t.Errorf("predict class = %d, want seq", pr.Class)
	}

	// The watcher hot-loads a file dropped into the registry directory.
	dropped, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "dropped.v1.json"), dropped, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Fetch("dropped"); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Fetch("dropped"); err != nil {
		t.Fatalf("watcher never served the dropped model: %v", err)
	}

	// Metrics reflect the traffic.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"apollo_http_requests_total",
		"apollo_predictions_total",
		`apollo_model_version{model="serve/policy"} 1`,
		"apollo_model_reloads_total 1",
		"apollo_go_goroutines",
		"apollo_go_heap_alloc_bytes",
		"apollo_go_gc_cycles_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The debug listener serves pprof and the loop tracer's window, where
	// the push above is a publish event; the service keeps no flight
	// recorder, so the flight endpoints are not mounted (404).
	resp, err = http.Get(debugBase + "/debug/apollo/loop")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("loop endpoint: %v %v", resp, err)
	}
	var loop struct {
		Format string            `json:"format"`
		Actor  string            `json:"actor"`
		Events []json.RawMessage `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&loop)
	resp.Body.Close()
	if err != nil || loop.Format != "apollo-loop-v1" || loop.Actor != "serve" || len(loop.Events) == 0 {
		t.Fatalf("loop capture: %+v (%v)", loop, err)
	}
	for path, want := range map[string]int{
		"/debug/pprof/":        http.StatusOK,
		"/debug/apollo/flight": http.StatusNotFound,
		"/debug/apollo/trace":  http.StatusNotFound,
	} {
		resp, err = http.Get(debugBase + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Clean shutdown on context cancel.
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestServeRejectsBadListenAddr(t *testing.T) {
	err := run(context.Background(), "256.0.0.1:http", t.TempDir(), "", "", "", "", "", 0, time.Second, nil, nil)
	if err == nil {
		t.Fatal("bad listen address accepted")
	}
	_ = fmt.Sprint(err)
}

// startServe boots run on free ports with a debug listener (and a spool
// when telemetryDir is set) and returns the two base URLs and a stop that
// cancels the daemon and returns what run returned.
func startServe(t *testing.T, telemetryDir string) (base, debugBase string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrs, debugAddrs := make(chan net.Addr, 1), make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", t.TempDir(), telemetryDir, "127.0.0.1:0", "", "", "", time.Second, time.Second,
			func(a net.Addr) { addrs <- a }, func(a net.Addr) { debugAddrs <- a })
	}()
	stop = func() error {
		cancel()
		select {
		case err := <-errc:
			errc <- err // stop may be called again
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("run did not return within 10s of the cancel")
		}
	}
	t.Cleanup(func() { stop() })
	for _, l := range []struct {
		ready chan net.Addr
		base  *string
	}{{addrs, &base}, {debugAddrs, &debugBase}} {
		select {
		case a := <-l.ready:
			*l.base = "http://" + a.String()
		case err := <-errc:
			t.Fatalf("daemon exited before it was ready: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never became ready")
		}
	}
	return base, debugBase, stop
}

// bgReadHeaderTimeout is internal/bg's header deadline, the unexported
// variable every listener of the product reads. The daemon under test is
// this package's run, so the test reaches across by name rather than
// growing an option nobody else would set.
//
//go:linkname bgReadHeaderTimeout apollo/internal/bg.readHeaderTimeout
var bgReadHeaderTimeout time.Duration

// TestServeDisconnectsStalledClients is the slowloris case: a client that
// sends a request line and then nothing is cut off by the API listener
// and by the debug listener once the header deadline passes, while a
// well-formed request beside it is answered. Before the listeners went
// through internal/bg neither had a deadline, and a stalled client held
// its connection and its goroutine for as long as it liked.
func TestServeDisconnectsStalledClients(t *testing.T) {
	bgtest.NoLeaks(t)
	defer func(d time.Duration) { bgReadHeaderTimeout = d }(bgReadHeaderTimeout)
	bgReadHeaderTimeout = 200 * time.Millisecond
	base, debugBase, stop := startServe(t, "")

	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	for _, l := range []struct{ name, base, path string }{
		{"api", base, "/healthz"},
		{"debug", debugBase, "/debug/pprof/cmdline"},
	} {
		start := time.Now() // before the dial: the server arms the header deadline when it accepts
		conn, err := net.Dial("tcp", strings.TrimPrefix(l.base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Get(l.base + l.path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s listener: well-formed request beside the stalled one: %v %v", l.name, resp, err)
		}
		resp.Body.Close()
		// The server hangs up without a reply; five seconds of silence
		// mean it is still waiting for the rest of the header.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s listener: stalled client read %d bytes, %v; want to be disconnected", l.name, n, err)
		}
		if waited := time.Since(start); waited < bgReadHeaderTimeout {
			t.Errorf("%s listener: disconnected after %v, before the header deadline of %v", l.name, waited, bgReadHeaderTimeout)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServeShutdownUnderLoad cancels the daemon while eight clients are
// posting telemetry. After run has returned: every row answered 202 is in
// the spool, once; nothing is there that was not sent (a post that failed
// in flight may have landed — its answer was lost, not its rows); no
// segment is still open; and no goroutine of the daemon is alive.
func TestServeShutdownUnderLoad(t *testing.T) {
	bgtest.NoLeaks(t)
	spool := t.TempDir()
	base, _, stop := startServe(t, spool)

	const posters, rowsPerBatch = 8, 4
	var acked, unknown sync.Map // row {poster, seq} -> true
	var ackedBatches atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(base, client.Options{})
			for seq := 0; ; seq += rowsPerBatch {
				frame := dataset.NewFrame("poster", "seq")
				for i := 0; i < rowsPerBatch; i++ {
					frame.AddRow([]float64{float64(p), float64(seq + i)})
				}
				into := &acked
				err := c.PostTelemetry(telemetry.NewBatch("load/policy", frame))
				if err != nil {
					into = &unknown
				}
				for i := 0; i < rowsPerBatch; i++ {
					into.Store([2]float64{float64(p), float64(seq + i)}, true)
				}
				if err != nil {
					return // the daemon is gone
				}
				ackedBatches.Add(1)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ackedBatches.Load() < 20*posters; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the posters never got going")
		}
	}
	if err := stop(); err != nil {
		t.Fatalf("run under load: %v", err)
	}
	wg.Wait()

	frame, err := telemetry.NewCursor(filepath.Join(spool, "load", "policy")).Poll()
	if err != nil || frame == nil {
		t.Fatalf("reading the spool back: %v %v", frame, err)
	}
	spooled := map[[2]float64]bool{}
	for i := 0; i < frame.Len(); i++ {
		row := [2]float64(frame.Row(i))
		if spooled[row] {
			t.Fatalf("row %v is in the spool twice", row)
		}
		spooled[row] = true
		_, wasAcked := acked.Load(row)
		_, wasUnknown := unknown.Load(row)
		if !wasAcked && !wasUnknown {
			t.Fatalf("row %v is in the spool but was never posted", row)
		}
	}
	nAcked := 0
	acked.Range(func(row, _ any) bool {
		nAcked++
		if !spooled[row.([2]float64)] {
			t.Errorf("row %v was answered 202 and is not in the spool", row)
		}
		return true
	})
	t.Logf("%d rows answered 202, %d spooled", nAcked, len(spooled))

	// Sealed means closed: the process holds no descriptor under the spool.
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to check for open segments: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, spool) {
			t.Errorf("segment %s is still open after run returned", target)
		}
	}
}

// crashChildEnv carries "<registry dir>\n<spool dir>" to the re-exec'd
// test binary that TestServeCrashChild turns into a daemon.
const crashChildEnv = "APOLLO_SERVE_TEST_CRASH_CHILD"

// TestServeCrashChild is not a test: re-exec'd by startCrashChild it is
// apollo-serve with -telemetry, serving until it is killed.
func TestServeCrashChild(t *testing.T) {
	dirs := strings.Split(os.Getenv(crashChildEnv), "\n")
	if len(dirs) != 2 {
		t.Skip("the daemon half of TestServeKilledMidStreamLosesNoAckedRow")
	}
	t.Fatal(run(context.Background(), "127.0.0.1:0", dirs[0], dirs[1], "", "", "", "", time.Second, time.Second, nil, nil))
}

// startCrashChild starts the daemon as a child process and returns its
// base URL and a kill that SIGKILLs it and waits for it to be gone.
func startCrashChild(t *testing.T, registryDir, spoolDir string) (base string, kill func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeCrashChild$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+registryDir+"\n"+spoolDir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	kill = func() {
		once.Do(func() {
			cmd.Process.Kill() // SIGKILL: no handler runs, nothing is flushed or sealed
			io.Copy(io.Discard, out)
			cmd.Wait()
		})
	}
	t.Cleanup(kill)
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		if _, rest, ok := strings.Cut(lines.Text(), "apollo-serve: listening on "); ok {
			return strings.Fields(rest)[0], kill
		}
	}
	t.Fatalf("the child exited before it listened: %v", lines.Err())
	return "", nil
}

// TestServeKilledMidStreamLosesNoAckedRow is kill -9 against the
// durability contract: a daemon is SIGKILLed while four clients post
// telemetry, and every row it answered 202 is read back by a fresh cursor,
// once; a row nobody was answered for may be there (once) or not. A
// restarted daemon leaves the dead one's last segment as it found it and
// resumes on the next, and the same cursor reads only the new rows.
func TestServeKilledMidStreamLosesNoAckedRow(t *testing.T) {
	registryDir, spoolDir := t.TempDir(), t.TempDir()
	base, kill := startCrashChild(t, registryDir, spoolDir)

	const posters, rowsPerBatch = 4, 4
	var acked, unknown sync.Map // row {poster, seq} -> true
	var ackedBatches atomic.Int64
	post := func(c *client.Client, poster, seq int) error {
		frame := dataset.NewFrame("poster", "seq")
		for i := 0; i < rowsPerBatch; i++ {
			frame.AddRow([]float64{float64(poster), float64(seq + i)})
		}
		err := c.PostTelemetry(telemetry.NewBatch("load/policy", frame))
		into := &acked
		if err != nil {
			into = &unknown
		}
		for i := 0; i < rowsPerBatch; i++ {
			into.Store([2]float64{float64(poster), float64(seq + i)}, true)
		}
		return err
	}
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := client.New(base, client.Options{})
			for seq := 0; post(c, p, seq) == nil; seq += rowsPerBatch {
				ackedBatches.Add(1)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ackedBatches.Load() < 20*posters; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the posters never got going")
		}
	}
	kill()
	wg.Wait()

	spool := filepath.Join(spoolDir, "load", "policy")
	cur := telemetry.NewCursor(spool)
	frame, err := cur.Poll()
	if err != nil || frame == nil {
		t.Fatalf("reading the dead daemon's spool: %v %v", frame, err)
	}
	spooled := map[[2]float64]bool{}
	for i := 0; i < frame.Len(); i++ {
		row := [2]float64(frame.Row(i))
		if spooled[row] {
			t.Fatalf("row %v is in the spool twice", row)
		}
		spooled[row] = true
		_, wasAcked := acked.Load(row)
		_, wasUnknown := unknown.Load(row)
		if !wasAcked && !wasUnknown {
			t.Fatalf("row %v is in the spool but was never posted", row)
		}
	}
	nAcked := 0
	acked.Range(func(row, _ any) bool {
		nAcked++
		if !spooled[row.([2]float64)] {
			t.Errorf("row %v was answered 202 and did not survive the kill", row)
		}
		return true
	})
	t.Logf("%d rows answered 202, %d spooled", nAcked, len(spooled))

	before, err := journal.Segments(spool)
	if err != nil || len(before) == 0 {
		t.Fatalf("segments after the kill = %v, %v", before, err)
	}
	last, err := os.ReadFile(before[len(before)-1])
	if err != nil {
		t.Fatal(err)
	}
	base, kill = startCrashChild(t, registryDir, spoolDir)
	if err := post(client.New(base, client.Options{}), posters, 0); err != nil {
		t.Fatalf("posting to the restarted daemon: %v", err)
	}
	kill()
	after, err := journal.Segments(spool)
	if err != nil || len(after) != len(before)+1 {
		t.Fatalf("segments after the restart = %v, %v; want one more than %v", after, err, before)
	}
	if now, err := os.ReadFile(before[len(before)-1]); err != nil || string(now) != string(last) {
		t.Errorf("the restarted daemon wrote into the dead one's last segment (%v)", err)
	}
	if frame, err = cur.Poll(); err != nil || frame == nil || frame.Len() != rowsPerBatch || frame.At(0, "poster") != posters {
		t.Fatalf("the cursor read %v, %v after the restart; want the %d new rows", frame, err, rowsPerBatch)
	}
}
