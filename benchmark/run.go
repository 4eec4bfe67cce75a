package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"apollo/internal/stats"
)

// sample is one reported metric value with its unit and the number of
// measurements (pairs, cycles, requests, probe calls) it summarises.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type metrics map[string]sample

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = sample{Value: v, Unit: unit, N: n}
}

// runResult is everything one run of one workload reports. The driver's
// contract line is a projection of it (see contractLine).
type runResult struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Correct    bool     `json:"correct"`
	Ops        int64    `json:"ops"`
	FailedOps  int64    `json:"failed_ops"`
	Unstable   bool     `json:"unstable"`
	CalibNS    []int64  `json:"bench.calib_ns"`
	Metrics    metrics  `json:"metrics"`
	Failures   []string `json:"failures,omitempty"`
	TraceFiles []string `json:"trace_files,omitempty"`
}

// run is the state of one run of one workload.
type run struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	part    int    // which of the run's child processes this is
	outDir  string // scratch and trace files live here
	scratch string // this run's own directory under outDir, removed when it ends
	epoch   time.Time
	res     runResult
	spans   *spanRecorder // merged spans of the traced pass
	x       []float64     // scratch for one vector of the predict oracle
}

// maxFailureNotes bounds the failure messages kept; the count is exact.
const maxFailureNotes = 20

// op counts one checked operation; when ok is false it counts as failed
// and the message says which oracle caught it.
func (r *run) op(ok bool, format string, args ...any) {
	r.ops(1, ok, format, args...)
}

// ops counts n operations that share one verdict.
func (r *run) ops(n int64, ok bool, format string, args ...any) {
	r.res.Ops += n
	if ok {
		return
	}
	r.res.FailedOps += n
	if len(r.res.Failures) < maxFailureNotes {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// share returns the part of the run's measuring time a phase gets. The
// traced pass keeps a fifth back for the direct layer probes.
func (r *run) share(f float64) time.Duration {
	if r.trace {
		f *= 0.8
	}
	return time.Duration(f * r.seconds * float64(time.Second))
}

// calibSpins is the length of the fixed integer spin timed at the start
// and the end of every run (about 20 ms on the reference container).
const calibSpins = 20_000_000

// calibrate times the spin; two readings a tenth apart mark the run
// unstable (the host changed speed underneath it).
func calibrate() int64 {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < calibSpins; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	sink += int(x & 1)
	return int64(d)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// execute runs the workload once in this process: set-up (timed), then
// the three phases, then the correctness summary.
func (r *run) execute(ctx context.Context) error {
	r.epoch = time.Now()
	r.res = runResult{
		Workload: r.w.Name, Seed: r.seed, Seconds: r.seconds, Trace: r.trace,
		Metrics: metrics{},
	}
	calibrate() // the first spin of a process reads slow: clocks ramp, pages fault in
	r.res.CalibNS = append(r.res.CalibNS, calibrate())

	scratch, err := os.MkdirTemp(r.outDir, "run-")
	if err != nil {
		return err
	}
	r.scratch = scratch
	defer func() {
		if err := os.RemoveAll(scratch); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: removing scratch:", err)
		}
	}()

	start := time.Now()
	env, err := r.setUp(ctx, filepath.Join(scratch, "env"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(start).Seconds()
	defer func() {
		if err := env.close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: closing environment:", err)
		}
	}()

	m := r.res.Metrics
	if r.trace {
		r.spans = newSpanRecorder(r.epoch, 0)
	}

	apps, err := r.launchPhase(ctx, env.apps, r.share(launchShare))
	if err != nil {
		return fmt.Errorf("launch phase: %w", err)
	}
	runtime.GC()
	req, err := r.requestPhase(ctx, env)
	if err != nil {
		return fmt.Errorf("request phase: %w", err)
	}
	runtime.GC()
	lp, err := r.loopPhase(ctx, env)
	if err != nil {
		return fmt.Errorf("loop phase: %w", err)
	}

	if r.trace {
		if err := r.launchWaterfall(env, apps, m); err != nil {
			return fmt.Errorf("launch waterfall: %w", err)
		}
		if err := r.requestWaterfall(ctx, env, req, m); err != nil {
			return fmt.Errorf("request waterfall: %w", err)
		}
		if err := r.loopWaterfall(ctx, env, lp, m); err != nil {
			return fmt.Errorf("loop waterfall: %w", err)
		}
		if err := checkSpans(r.spans.spans); err != nil {
			r.op(false, "span tree: %v", err)
		}
		path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-%d.json", r.w.Name, r.part))
		r.res.TraceFiles = []string{path}
		err := writeTrace(path, traceFile{
			Workload: r.w.Name, Seed: r.seed, Dropped: r.spans.dropped, Spans: r.spans.spans,
		})
		if err != nil {
			return err
		}
	} else {
		m.set("setup_s", setupS, "s", 1)
		launchEndToEnd(apps, m)
		req.endToEnd(m)
		lp.endToEnd(m)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		m.set("peak_rss_mb", rss, "MB", 1)
	}

	r.res.CalibNS = append(r.res.CalibNS, calibrate())
	first, last := float64(r.res.CalibNS[0]), float64(r.res.CalibNS[1])
	r.res.Unstable = last > 1.1*first || first > 1.1*last
	if r.trace {
		m.set("bench.calib_ns", stats.Median([]float64{first, last}), "ns", 2)
	}
	r.res.Correct = r.res.FailedOps == 0
	return nil
}

// mergeParts folds the results of a run's child processes into the
// run's: per metric the median over the children (sample counts added),
// operations and failures added, every calibration reading kept.
func mergeParts(parts []runResult) runResult {
	first := parts[0]
	res := runResult{Workload: first.Workload, Seed: first.Seed, Trace: first.Trace, Metrics: metrics{}}
	values := map[string][]float64{}
	for _, p := range parts {
		res.Ops += p.Ops
		res.FailedOps += p.FailedOps
		res.Unstable = res.Unstable || p.Unstable
		res.CalibNS = append(res.CalibNS, p.CalibNS...)
		res.TraceFiles = append(res.TraceFiles, p.TraceFiles...)
		for _, f := range p.Failures {
			if len(res.Failures) < maxFailureNotes {
				res.Failures = append(res.Failures, f)
			}
		}
		for name, s := range p.Metrics {
			values[name] = append(values[name], s.Value)
			agg := res.Metrics[name]
			agg.Unit, agg.N = s.Unit, agg.N+s.N
			res.Metrics[name] = agg
		}
	}
	for name, vs := range values {
		agg := res.Metrics[name]
		agg.Value = stats.Median(vs)
		res.Metrics[name] = agg
	}
	res.Correct = res.FailedOps == 0
	return res
}

// report prints every metric by name with its unit and sample count,
// then the failures, for a reader.
func (res *runResult) report(w io.Writer) {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s pass  %.0f s\n", res.Workload, res.Seed, pass, res.Seconds)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.6g %-8s n=%d\n", name, s.Value, s.Unit, s.N)
	}
	fmt.Fprintf(w, "  %-36s %16d\n  %-36s %16d\n", "ops", res.Ops, "failed_ops", res.FailedOps)
	if res.Unstable {
		fmt.Fprintf(w, "  unstable: bench.calib_ns read %v at the start and end of each process\n", res.CalibNS)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
func (res *runResult) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Ops, Failed: res.FailedOps, Metrics: map[string]value{}}
	for name, s := range res.Metrics {
		out.Metrics[name] = value{Value: s.Value, Unit: s.Unit}
	}
	return json.Marshal(out)
}
