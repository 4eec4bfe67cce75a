package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"apollo/internal/instmix"
	"apollo/internal/platform"
	"apollo/internal/raja"
)

func tracedRun(t *testing.T, limit int) *Tracer {
	t.Helper()
	tr := New(nil, limit)
	clk := platform.NewSimClock(platform.SandyBridgeNode(), 0, 0)
	ctx := raja.NewSimContext(clk, raja.Params{Policy: raja.SeqExec})
	ctx.Hooks = tr
	kSmall := raja.NewKernel("trace::small", instmix.NewMix().With(instmix.Add, 2))
	kBig := raja.NewKernel("trace::big", instmix.NewMix().With(instmix.Add, 2))
	for i := 0; i < 3; i++ {
		raja.ForAll(ctx, kSmall, raja.NewRange(0, 10), func(int) {})
	}
	ctxPar := raja.NewSimContext(clk, raja.Params{Policy: raja.OmpParallelForExec})
	ctxPar.Hooks = tr
	raja.ForAll(ctxPar, kBig, raja.NewRange(0, 100000), func(int) {})
	return tr
}

func TestTracerRecordsTimeline(t *testing.T) {
	tr := tracedRun(t, 0)
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("recorded %d events, want 4", len(events))
	}
	// Events must be contiguous: each starts where the previous ended.
	for i := 1; i < len(events); i++ {
		wantStart := events[i-1].StartNS + events[i-1].DurationNS
		if events[i].StartNS != wantStart {
			t.Errorf("event %d starts at %g, want %g", i, events[i].StartNS, wantStart)
		}
	}
	if events[0].Params.Policy != raja.SeqExec {
		t.Error("first event should be sequential")
	}
	if events[3].Params.Policy != raja.OmpParallelForExec {
		t.Error("last event should be parallel")
	}
	if events[3].Iterations != 100000 {
		t.Errorf("iterations = %d", events[3].Iterations)
	}
}

func TestTracerLimit(t *testing.T) {
	tr := tracedRun(t, 2)
	if tr.Len() != 2 {
		t.Errorf("limit not enforced: %d events", tr.Len())
	}
}

func TestSummarize(t *testing.T) {
	tr := tracedRun(t, 0)
	sums := Summarize(tr.Events())
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	// Sorted by total time: the big parallel kernel first.
	if sums[0].Kernel != "trace::big" {
		t.Errorf("first summary = %s", sums[0].Kernel)
	}
	small := sums[1]
	if small.Launches != 3 || small.SeqCount != 3 || small.ParCount != 0 {
		t.Errorf("small summary wrong: %+v", small)
	}
	if small.MinIter != 10 || small.MaxIter != 10 || small.MeanIters != 10 {
		t.Errorf("iteration stats wrong: %+v", small)
	}
	// Per-kernel totals are the launches' durations summed in launch
	// order, and together they are the whole timeline.
	events := tr.Events()
	if want := events[0].DurationNS + events[1].DurationNS + events[2].DurationNS; small.TotalNS != want || want <= 0 {
		t.Errorf("small total = %g, want %g", small.TotalNS, want)
	}
	last := events[len(events)-1]
	if end := last.StartNS + last.DurationNS; sums[0].TotalNS+sums[1].TotalNS != end {
		t.Errorf("totals sum to %g, the timeline ends at %g", sums[0].TotalNS+sums[1].TotalNS, end)
	}
}

func TestChromeTraceFormat(t *testing.T) {
	tr := tracedRun(t, 0)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(decoded) != 4 {
		t.Fatalf("trace has %d entries", len(decoded))
	}
	first := decoded[0]
	if first["ph"] != "X" || first["name"] != "trace::small" {
		t.Errorf("first entry wrong: %v", first)
	}
	// Sequential and parallel launches use separate tracks.
	tids := map[float64]bool{}
	for _, e := range decoded {
		tids[e["tid"].(float64)] = true
	}
	if !tids[0] || !tids[1] {
		t.Error("expected both seq (tid 0) and parallel (tid 1) tracks")
	}
}

func TestSaveChromeTrace(t *testing.T) {
	tr := tracedRun(t, 0)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := SaveChromeTrace(path, tr.Events()); err != nil {
		t.Fatal(err)
	}
}

func TestSaveChromeTraceUnwritablePath(t *testing.T) {
	tr := tracedRun(t, 0)
	// A path whose parent directory does not exist must surface the
	// filesystem error, not panic or silently drop the trace.
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "trace.json")
	if err := SaveChromeTrace(path, tr.Events()); err == nil {
		t.Fatal("SaveChromeTrace to a missing directory reported success")
	}
}

func TestSaveChromeTraceRoundTrip(t *testing.T) {
	tr := tracedRun(t, 0)
	events := tr.Events()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := SaveChromeTrace(path, events); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("saved trace is not valid JSON: %v", err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("saved %d entries, want %d", len(decoded), len(events))
	}
	for i, e := range decoded {
		src := events[i]
		if e.Name != src.Kernel || e.Cat != "kernel" || e.Ph != "X" {
			t.Errorf("entry %d identity wrong: %+v", i, e)
		}
		// Timestamps are exported in microseconds.
		if e.Ts != src.StartNS/1e3 || e.Dur != src.DurationNS/1e3 {
			t.Errorf("entry %d timing: ts=%g dur=%g, want %g/%g", i, e.Ts, e.Dur, src.StartNS/1e3, src.DurationNS/1e3)
		}
		wantTID := 0
		if src.Params.Policy.Parallel() {
			wantTID = 1
		}
		if e.TID != wantTID {
			t.Errorf("entry %d on track %d, want %d", i, e.TID, wantTID)
		}
		if e.Args["iterations"] != fmt.Sprintf("%d", src.Iterations) || e.Args["params"] != src.Params.String() {
			t.Errorf("entry %d args wrong: %v", i, e.Args)
		}
	}
}

func TestTracerDelegates(t *testing.T) {
	inner := &countingHooks{}
	tr := New(inner, 0)
	k := raja.NewKernel("trace::delegate", nil)
	if p, ok := tr.Begin(k, raja.NewRange(0, 5)); !ok || p.Policy != raja.SeqExec {
		t.Error("Begin not delegated")
	}
	tr.End(k, raja.NewRange(0, 5), raja.Params{}, 10)
	if inner.begins != 1 || inner.ends != 1 {
		t.Error("inner hooks not called")
	}

	// With no inner hooks Begin leaves the context's parameters alone and
	// End still records.
	bare := New(nil, 0)
	if _, ok := bare.Begin(k, raja.NewRange(0, 5)); ok {
		t.Error("a tracer with no inner hooks overrode the launch parameters")
	}
	bare.End(k, raja.NewRange(0, 5), raja.Params{}, 10)
	if bare.Len() != 1 {
		t.Error("a tracer with no inner hooks recorded nothing")
	}
}

type countingHooks struct{ begins, ends int }

func (h *countingHooks) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	h.begins++
	return raja.Params{Policy: raja.SeqExec}, true
}

func (h *countingHooks) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, ns float64) {
	h.ends++
}

// TestTracerConcurrentLaunchesRaceFree drives one tracer from many
// goroutines at once — the shape of an application tracing concurrent
// contexts — and verifies (under -race) that the timeline stays
// internally consistent: no lost events, no overlapping virtual spans.
func TestTracerConcurrentLaunchesRaceFree(t *testing.T) {
	tr := New(nil, 0)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := raja.NewKernel(fmt.Sprintf("trace::worker%d", w), nil)
			iset := raja.NewRange(0, 10)
			for i := 0; i < perWorker; i++ {
				p, _ := tr.Begin(k, iset)
				tr.End(k, iset, p, 5)
			}
		}(w)
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != workers*perWorker {
		t.Fatalf("recorded %d events, want %d", len(events), workers*perWorker)
	}
	// The virtual timeline is contiguous regardless of interleaving:
	// every End advances the clock by its duration under the lock.
	starts := map[float64]bool{}
	for _, e := range events {
		if starts[e.StartNS] {
			t.Fatalf("two events share virtual start %g", e.StartNS)
		}
		starts[e.StartNS] = true
	}
}

// TestTracerLimitKeepsEarliest pins down which side of the trace the
// cap discards: the earliest events are retained (the startup timeline,
// which is what a bounded trace is for), later ones are dropped, and
// the virtual clock still advances past the cap.
func TestTracerLimitKeepsEarliest(t *testing.T) {
	tr := New(nil, 3)
	k := raja.NewKernel("trace::capped", nil)
	iset := raja.NewRange(0, 10)
	for i := 0; i < 10; i++ {
		tr.End(k, iset, raja.Params{}, float64(100+i))
	}
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("cap kept %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.DurationNS != float64(100+i) {
			t.Fatalf("event %d has duration %g: cap did not keep the earliest", i, e.DurationNS)
		}
	}
	// Still contiguous from zero.
	if events[0].StartNS != 0 || events[2].StartNS != 201 {
		t.Fatalf("starts %g, %g: timeline broken by cap", events[0].StartNS, events[2].StartNS)
	}
}

// TestChromeTraceMergesArgsAndCat covers the exporter extensions the
// flight recorder relies on: per-event category override and extra args
// merged over the defaults.
func TestChromeTraceMergesArgsAndCat(t *testing.T) {
	events := []Event{{
		Kernel:     "k",
		StartNS:    1000,
		DurationNS: 2000,
		Iterations: 7,
		Params:     raja.Params{Policy: raja.SeqExec},
		Cat:        "decision",
		Args:       map[string]string{"explored": "true", "params": "overridden"},
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var decoded []struct {
		Cat  string            `json:"cat"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded[0].Cat != "decision" {
		t.Errorf("cat = %q, want decision", decoded[0].Cat)
	}
	args := decoded[0].Args
	if args["iterations"] != "7" || args["explored"] != "true" || args["params"] != "overridden" {
		t.Errorf("args not merged: %v", args)
	}
}
