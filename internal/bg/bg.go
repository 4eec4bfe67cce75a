// Package bg is the one place product code starts a goroutine, a ticker
// or an HTTP server (spawn_test.go fails on one anywhere else): whatever
// a Group starts runs under its context and is joined by its Wait.
package bg

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// readHeaderTimeout bounds a request header's arrival; a variable so tests can shorten it.
var readHeaderTimeout = 5 * time.Second

// Group is a set of goroutines with one lifetime.
type Group struct {
	ctx    context.Context
	cancel context.CancelFunc
	onErr  func(name string, err error)
	wg     sync.WaitGroup
	failed sync.Once
	err    error // the first fatal error, written under failed
}

// New returns a group that tells its goroutines to stop when ctx ends or
// one started by Go fails. onErr (nil discards) is the one sink of the
// errors Every's steps return: a daemon logs and counts them there.
func New(ctx context.Context, onErr func(name string, err error)) *Group {
	g := &Group{onErr: onErr}
	g.ctx, g.cancel = context.WithCancel(ctx)
	return g
}

// Go runs run on a new goroutine and returns a channel closed once it has
// returned. An error from run is fatal: it ends the group's context, and
// the first one is what Wait reports.
func (g *Group) Go(name string, run func(ctx context.Context) error) <-chan struct{} {
	done := make(chan struct{})
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer close(done)
		if err := run(g.ctx); err != nil {
			g.failed.Do(func() { g.err = fmt.Errorf("%s: %w", name, err) })
			g.cancel()
		}
	}()
	return done
}

// Every calls step each interval until the group's context ends — and
// once more after that when flush is set, for a loop that holds buffered
// data. A step's error goes to the group's sink; the loop keeps ticking.
func (g *Group) Every(name string, interval time.Duration, flush bool, step func() error) <-chan struct{} {
	run := func() {
		if err := step(); err != nil && g.onErr != nil {
			g.onErr(name, err)
		}
	}
	return g.Go(name, func(ctx context.Context) error {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				if flush {
					run()
				}
				return nil
			case <-t.C:
				run()
			}
		}
	})
}

// Serve answers requests on ln with h — header within readHeaderTimeout,
// body within 30 s, no write deadline because /debug/apollo/trace?sec=N
// and pprof answer for as long as they were asked to — until the group's
// context ends, then drains those in flight for at most 5 s. Request
// contexts derive from the group's, so a timed capture ends with it.
func (g *Group) Serve(name string, ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, BaseContext: func(net.Listener) context.Context { return g.ctx },
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	g.Go(name, func(context.Context) error {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	})
	g.Go(name+" shutdown", func(ctx context.Context) error {
		<-ctx.Done()
		drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		return srv.Shutdown(drain)
	})
}

// Wait returns the first fatal error once everything the group started has returned.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}
