package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"apollo/internal/registry"
	"apollo/internal/server"
)

// Model names on the benchmark's service. Each phase spools to its own
// name so the row-count oracles do not see one another's rows.
const (
	modelServe  = "bench/serve"  // request phase A: predicts, ingest, GET, PUT
	modelIngest = "bench/ingest" // request phase C: closed-loop ingest
	modelProbe  = "bench/probe"  // traced pass: direct handler calls
	modelLoop   = "bench/loop"   // loop phase
)

// service is the program under test on the request and loop paths: an
// in-process apollo-serve (registry on disk, telemetry spools on disk)
// behind a real loopback listener.
type service struct {
	reg      *registry.Registry
	srv      *server.Server
	hs       *http.Server
	url      string
	spoolDir string
	done     chan struct{} // closed once Serve has returned
	serveErr error         // written before done closes
}

func startService(dir string) (*service, error) {
	reg, err := registry.Open(filepath.Join(dir, "registry"))
	if err != nil {
		return nil, err
	}
	s := &service{reg: reg, spoolDir: filepath.Join(dir, "spool"), done: make(chan struct{})}
	s.srv = server.New(reg, server.WithTelemetryDir(s.spoolDir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		s.serveErr = s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener down, waits for Serve to return, and seals the
// spools.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if s.serveErr != nil && !errors.Is(s.serveErr, http.ErrServerClosed) {
		err = errors.Join(err, s.serveErr)
	}
	return errors.Join(err, s.srv.CloseSpools())
}

// spoolPath is where the service spools rows ingested for model name.
func (s *service) spoolPath(name string) string {
	return filepath.Join(s.spoolDir, filepath.FromSlash(name))
}

// loadConns is how many connections (and load goroutines) the benchmark
// drives the service with: one per CPU, so the generator never needs
// more of the machine than the service it shares it with.
func loadConns() int { return runtime.GOMAXPROCS(0) }

// newLoadClient returns the HTTP client of the load generator: one
// keep-alive connection per load goroutine and a request deadline.
func newLoadClient() *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        loadConns(),
		MaxIdleConnsPerHost: loadConns(),
		MaxConnsPerHost:     loadConns(),
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// reply is what the load generator keeps of one response.
type reply struct {
	status int
	etag   string
	body   []byte
}

// do sends one request and reads the whole response into buf (reused
// across calls by the owning goroutine).
func do(ctx context.Context, hc *http.Client, method, url, ifNoneMatch string, body []byte, buf *bytes.Buffer) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return reply{}, fmt.Errorf("reading %s %s reply: %w", method, url, err)
	}
	return reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: buf.Bytes()}, nil
}
