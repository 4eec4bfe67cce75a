// Package trace records a per-launch timeline of kernel executions and
// tuning decisions, exportable in the Chrome trace-event JSON format
// (chrome://tracing, Perfetto). It is the observability layer an
// application team uses to see *which* launches Apollo switched to
// sequential execution and what that did to the timeline — the
// per-kernel evidence behind the paper's Figs. 2 and 6.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"apollo/internal/raja"
)

// Event is one recorded kernel launch.
type Event struct {
	// Kernel is the launch site name.
	Kernel string
	// StartNS is the launch's start on the virtual (or wall) timeline.
	StartNS float64
	// DurationNS is the launch's duration.
	DurationNS float64
	// Iterations is the launch's trip count.
	Iterations int
	// Params is the parameter assignment used.
	Params raja.Params
	// Cat, when non-empty, overrides the exported trace-event category
	// (default "kernel"). The flight recorder uses "decision" for
	// tuning-overhead spans so they land on their own Perfetto track.
	Cat string
	// Args are extra key/value pairs merged into the exported args
	// (overriding the default iterations/params entries on key clash).
	Args map[string]string
}

// Tracer records every launch it observes; install its Observe as a
// context's observer.
type Tracer struct {
	mu     sync.Mutex
	nowNS  float64
	events []Event
	limit  int
}

// New returns a tracer. A limit > 0 caps the number of retained events
// (the earliest are kept).
func New(limit int) *Tracer {
	return &Tracer{limit: limit}
}

// Observe records the launch on a contiguous virtual timeline.
func (t *Tracer) Observe(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limit <= 0 || len(t.events) < t.limit {
		t.events = append(t.events, Event{
			Kernel:     k.Name,
			StartNS:    t.nowNS,
			DurationNS: elapsedNS,
			Iterations: iset.Len(),
			Params:     p,
		})
	}
	t.nowNS += elapsedNS
}

// Events returns a snapshot of the recorded launches.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Len returns the number of recorded launches.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Summary aggregates the trace per kernel: launches, total time, and the
// split between sequential and parallel decisions.
type Summary struct {
	Kernel    string
	Launches  int
	TotalNS   float64
	SeqCount  int
	ParCount  int
	MinIter   int
	MaxIter   int
	MeanIters float64
}

// Summarize aggregates events per kernel, sorted by descending total time.
func Summarize(events []Event) []Summary {
	byKernel := map[string]*Summary{}
	var order []string
	for _, e := range events {
		s := byKernel[e.Kernel]
		if s == nil {
			s = &Summary{Kernel: e.Kernel, MinIter: e.Iterations, MaxIter: e.Iterations}
			byKernel[e.Kernel] = s
			order = append(order, e.Kernel)
		}
		s.Launches++
		s.TotalNS += e.DurationNS
		s.MeanIters += float64(e.Iterations)
		if e.Params.Policy.Parallel() {
			s.ParCount++
		} else {
			s.SeqCount++
		}
		if e.Iterations < s.MinIter {
			s.MinIter = e.Iterations
		}
		if e.Iterations > s.MaxIter {
			s.MaxIter = e.Iterations
		}
	}
	out := make([]Summary, 0, len(byKernel))
	for _, name := range order {
		s := byKernel[name]
		if s.Launches > 0 {
			s.MeanIters /= float64(s.Launches)
		}
		out = append(out, *s)
	}
	// Insertion sort by total time descending (traces are small).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TotalNS > out[j-1].TotalNS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format ("X" =
// complete event; timestamps in microseconds).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the events as a Chrome trace-event JSON array,
// loadable in chrome://tracing or Perfetto. Sequential and parallel
// launches land on separate tracks (tid 0/1) so the policy mix is
// visible at a glance.
func WriteChromeTrace(w io.Writer, events []Event) error {
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		tid := 0
		if e.Params.Policy.Parallel() {
			tid = 1
		}
		cat := e.Cat
		if cat == "" {
			cat = "kernel"
		}
		args := map[string]string{
			"iterations": fmt.Sprintf("%d", e.Iterations),
			"params":     e.Params.String(),
		}
		for k, v := range e.Args {
			args[k] = v
		}
		out = append(out, chromeEvent{
			Name: e.Kernel,
			Cat:  cat,
			Ph:   "X",
			Ts:   e.StartNS / 1e3,
			Dur:  e.DurationNS / 1e3,
			PID:  1,
			TID:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SaveChromeTrace writes the trace to the named file.
func SaveChromeTrace(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTrace(f, events); err != nil {
		f.Close() //apollo:errok Close on the error path; the write error is already being returned
		return err
	}
	return f.Close()
}
