// Command benchmark is the repository's benchmark: one harness that
// measures Apollo's three paths — the in-situ launch path on the three
// hydro applications, the model service's predict/ingest request path
// over a real loopback socket, and the closed retrain loop with its
// cadences removed — end to end and, in a separate traced pass, layer
// by layer. See README.md for the workloads, the metrics, and which
// layer metric is expected to move which end-to-end metric.
//
//	bash benchmark/run.sh -seed 1                       all workloads, both passes, one JSON file
//	bash benchmark/run.sh --workload small-hot --seed 1 --seconds 45 --trace 0
//	bash benchmark/run.sh -smoke
//	bash benchmark/run.sh -compare parent.json change.json
//
// run.sh builds with the Go cache inside the checkout; `go run -C
// benchmark . <args>` does the same with the user's cache.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
)

// defaultSeconds is the measuring time of one run, the run_seconds of
// BENCHMARK.json.
const defaultSeconds = 45

// parts is how many child processes share one run's measuring time. Each
// sets up for itself and runs every phase for a third of the time; the
// run reports, per metric, the median over the children. What a process
// draws once and keeps — where its heap and its sockets land, which
// thread polls the network — moves a loopback round trip by a tenth from
// one process to the next; the median over three draws moves less, and
// set-up time and peak memory become medians of three as well.
const parts = 3

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "run this one workload and print the driver's result line (default: every workload, both passes)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same decks, vectors and rows")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics; 0 the untraced pass and the end-to-end metrics")
	smoke := flag.Bool("smoke", false, "run the tiny smoke workload, both passes, in about ten seconds")
	compare := flag.Bool("compare", false, "compare two run files: -compare parent.json change.json")
	outDir := flag.String("out", "out", "directory for trace files, the run file and scratch spools")
	sets := flag.Int("sets", 1, "without -workload: run this many run-sets, on seeds seed, seed+1, ...")
	specPath := flag.String("spec", "../BENCHMARK.json", "with -compare: the benchmark's declaration file, for each metric's direction and bound")
	child := flag.String("child", "", "internal: run -part of the run in this process and write its result to this file")
	part := flag.Int("part", 0, "internal: which child of the run this is")
	flag.Parse()

	// Pin the scheduler to the CPUs the load model assumes.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var err error
	switch {
	case *compare:
		return compareMain(*specPath, flag.Args())
	case *smoke:
		err = runSmoke(ctx, *seed, *outDir)
	case *child != "":
		err = runPart(ctx, *name, *seed, *seconds, *trace != 0, *part, *outDir, *child)
	case *name != "":
		err = runOne(ctx, *name, *seed, *seconds, *trace != 0, *outDir)
	default:
		err = runAll(ctx, *seed, *sets, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runPart is a child process: one part of one run, its full result
// written to resultPath for the parent.
func runPart(ctx context.Context, name string, seed uint64, seconds float64, trace bool, part int, outDir, resultPath string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r := &run{w: w, seed: seed, seconds: seconds, trace: trace, part: part, outDir: outDir}
	if err := r.execute(ctx); err != nil {
		return fmt.Errorf("workload %s part %d: %w", name, part, err)
	}
	data, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath, data, 0o644)
}

// measure is one run: parts child processes of this program, one after
// the other, each a clean heap with kernel invocation counts that start
// from the same state and a VmHWM of its own, merged into one result.
func measure(ctx context.Context, w workload, seed uint64, seconds float64, trace bool, outDir string) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	results := make([]runResult, parts)
	for part := range results {
		resultPath := filepath.Join(outDir, fmt.Sprintf("result-%s-%d.json", w.Name, part))
		traceArg := "0"
		if trace {
			traceArg = "1"
		}
		cmd := exec.CommandContext(ctx, self,
			"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds/parts),
			"-trace", traceArg, "-out", outDir, "-part", fmt.Sprint(part), "-child", resultPath)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return runResult{}, fmt.Errorf("workload %s (seed %d, part %d): %w", w.Name, seed, part, err)
		}
		if err := readJSON(resultPath, &results[part]); err != nil {
			return runResult{}, err
		}
		if err := os.Remove(resultPath); err != nil {
			return runResult{}, err
		}
	}
	res := mergeParts(results)
	res.Seconds = seconds
	return res, nil
}

// runOne runs one pass of one workload and prints the driver's contract:
// every metric for a reader, then one JSON line.
func runOne(ctx context.Context, name string, seed uint64, seconds float64, trace bool, outDir string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res, err := measure(ctx, w, seed, seconds, trace, outDir)
	if err != nil {
		return err
	}
	res.report(os.Stdout)
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runSmoke runs both passes of the smoke workload in this process.
func runSmoke(ctx context.Context, seed uint64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, trace := range []bool{false, true} {
		r := &run{w: smokeWorkload, seed: seed, seconds: smokeSeconds, trace: trace, outDir: outDir}
		if err := r.execute(ctx); err != nil {
			return err
		}
		r.res.report(os.Stdout)
		if !r.res.Correct {
			return fmt.Errorf("smoke: %d of %d operations failed", r.res.FailedOps, r.res.Ops)
		}
	}
	return nil
}

// smokeSeconds is the measuring time of one smoke pass.
const smokeSeconds = 2.5

// runFile is the one JSON file a full invocation writes, and the input
// of -compare: every pass of every workload, with the host it ran on.
type runFile struct {
	Format    string      `json:"format"`
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"nproc"`
	Procs     int         `json:"gomaxprocs"`
	Runs      []runResult `json:"runs"`
}

const runFileFormat = "apollo-bench-v1"

func newRunFile() *runFile {
	return &runFile{
		Format: runFileFormat, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0),
	}
}

// runAll runs sets run-sets on consecutive seeds. A run-set is every
// workload, untraced then traced. All results go to one file.
func runAll(ctx context.Context, firstSeed uint64, sets int, seconds float64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rf := newRunFile()
	failed := false
	for seed := firstSeed; seed < firstSeed+uint64(sets); seed++ {
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				res, err := measure(ctx, w, seed, seconds, trace, outDir)
				if err != nil {
					return err
				}
				res.report(os.Stdout)
				failed = failed || !res.Correct
				rf.Runs = append(rf.Runs, res)
			}
		}
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("BENCH-seed%d.json", firstSeed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed {
		return fmt.Errorf("some operations failed their oracle; see the FAILED lines above")
	}
	return nil
}
