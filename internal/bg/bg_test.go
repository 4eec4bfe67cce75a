package bg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apollo/internal/bg/bgtest"
)

// waitFor polls cond until it holds; the loops under test tick every
// millisecond, so ten seconds means a hang, not a slow host.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestEveryTicksUntilCancel: a loop steps on every tick, stops when the
// context ends, and runs one more step after that only when asked to.
func TestEveryTicksUntilCancel(t *testing.T) {
	for _, flush := range []bool{false, true} {
		t.Run(fmt.Sprintf("flush=%v", flush), func(t *testing.T) {
			bgtest.NoLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var steps, afterCancel atomic.Int64
			g := New(ctx, nil)
			// An hour between ticks for the flush case: the only step that
			// can run is the one after cancel.
			interval := time.Millisecond
			if flush {
				interval = time.Hour
			}
			done := g.Every("loop", interval, flush, func() error {
				steps.Add(1)
				if ctx.Err() != nil {
					afterCancel.Add(1)
				}
				return nil
			})
			if !flush {
				waitFor(t, "three ticks", func() bool { return steps.Load() >= 3 })
			}
			cancel()
			<-done
			if err := g.Wait(); err != nil {
				t.Fatalf("Wait = %v after a clean stop", err)
			}
			stopped := steps.Load()
			time.Sleep(5 * time.Millisecond)
			if steps.Load() != stopped {
				t.Error("the loop stepped after Wait returned")
			}
			if flush && (stopped != 1 || afterCancel.Load() != 1) {
				t.Errorf("flush loop ran %d steps, %d after cancel; want exactly the last one", stopped, afterCancel.Load())
			}
			// Without flush a tick may still win the race against the
			// cancel once, as in the loops this replaced; never twice.
			if !flush && afterCancel.Load() > 1 {
				t.Errorf("%d steps ran after cancel in a loop that does not flush", afterCancel.Load())
			}
		})
	}
}

// TestEveryRoutesStepErrorsToTheSink: a failing step is not fatal — its
// error reaches the group's one sink under the loop's name, the loop
// keeps ticking, and Wait reports nothing.
func TestEveryRoutesStepErrorsToTheSink(t *testing.T) {
	bgtest.NoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	var mu sync.Mutex
	var sunk []string
	g := New(ctx, func(name string, err error) {
		mu.Lock()
		defer mu.Unlock()
		sunk = append(sunk, name+": "+err.Error())
	})
	var steps atomic.Int64
	g.Every("flaky", time.Millisecond, false, func() error {
		if steps.Add(1)%2 == 1 {
			return boom
		}
		return nil
	})
	waitFor(t, "steps past two failures", func() bool { return steps.Load() >= 5 })
	cancel()
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait = %v; a step error must not be fatal", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sunk) < 3 || int64(len(sunk)) != (steps.Load()+1)/2 {
		t.Fatalf("sink saw %d errors over %d steps, want every odd step's", len(sunk), steps.Load())
	}
	for _, s := range sunk {
		if s != "flaky: boom" {
			t.Fatalf("sink saw %q, want the loop's name and the step's error", s)
		}
	}
}

// TestGoFirstErrorStopsTheGroup: the first error a Go function returns
// ends the group's context — so its siblings stop — and is the error
// Wait returns, under the failing function's name.
func TestGoFirstErrorStopsTheGroup(t *testing.T) {
	bgtest.NoLeaks(t)
	g := New(context.Background(), nil)
	boom := errors.New("boom")
	release := make(chan struct{})
	var siblingsStopped atomic.Int64
	for i := 0; i < 3; i++ {
		g.Go("sibling", func(ctx context.Context) error {
			<-ctx.Done()
			siblingsStopped.Add(1)
			return ctx.Err() // a later error: not the one Wait reports
		})
	}
	g.Go("client 2", func(context.Context) error {
		<-release
		return boom
	})
	close(release)
	err := g.Wait()
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "client 2: ") {
		t.Fatalf("Wait = %v, want the first failure under its name", err)
	}
	if siblingsStopped.Load() != 3 {
		t.Fatalf("%d of 3 siblings had stopped when Wait returned", siblingsStopped.Load())
	}
}

// TestWaitJoinsAStepInFlight: Wait does not return while a step is still
// running, so whatever a daemon closes after Wait is no longer in use.
// Run under -race: the step's plain write is ordered only by the join.
func TestWaitJoinsAStepInFlight(t *testing.T) {
	bgtest.NoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, nil)
	entered := make(chan struct{})
	var once sync.Once
	finished := false // written by the step, read after Wait
	g.Every("slow", time.Millisecond, false, func() error {
		once.Do(func() { close(entered) })
		time.Sleep(20 * time.Millisecond)
		finished = true
		return nil
	})
	<-entered
	cancel()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("Wait returned while the step was mid-flight")
	}
}

// TestServeDrainsAndEndsWithTheGroup: a request in flight when the
// context ends is answered, a handler waiting on its request's context
// ends with the group (that is what lets a timed trace capture have no
// write deadline), and Wait returns only once both have.
func TestServeDrainsAndEndsWithTheGroup(t *testing.T) {
	bgtest.NoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, nil)
	inHandler := make(chan struct{}, 2)
	mux := http.NewServeMux()
	mux.HandleFunc("/capture", func(w http.ResponseWriter, r *http.Request) {
		inHandler <- struct{}{}
		<-r.Context().Done()
		fmt.Fprint(w, "captured")
	})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		inHandler <- struct{}{}
		time.Sleep(50 * time.Millisecond)
		fmt.Fprint(w, "answered")
	})
	g.Serve("api", ln, mux)

	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	bodies := make(chan string, 2)
	for _, path := range []string{"/capture", "/slow"} {
		go func() {
			resp, err := hc.Get("http://" + ln.Addr().String() + path)
			if err != nil {
				bodies <- err.Error()
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies <- string(b)
		}()
	}
	<-inHandler
	<-inHandler
	cancel()
	start := time.Now()
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait = %v after a drain well inside the grace", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("shutdown took %v: the capture handler did not end with the group", waited)
	}
	got := []string{<-bodies, <-bodies}
	if !(got[0] == "captured" && got[1] == "answered") && !(got[0] == "answered" && got[1] == "captured") {
		t.Fatalf("in-flight requests were answered %q", got)
	}
	if _, err := hc.Get("http://" + ln.Addr().String() + "/slow"); err == nil {
		t.Error("the listener still accepts after Wait")
	}
}

// TestServeFailureIsFatal: a listener that dies under its server ends
// the group and is what Wait reports.
func TestServeFailureIsFatal(t *testing.T) {
	bgtest.NoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := New(context.Background(), nil)
	g.Serve("debug", ln, http.NotFoundHandler())
	ln.Close()
	if err := g.Wait(); err == nil || !strings.HasPrefix(err.Error(), "debug: ") {
		t.Fatalf("Wait = %v, want the accept error under the listener's name", err)
	}
}
