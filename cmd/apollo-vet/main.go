// Command apollo-vet runs Apollo's project-specific static analyzers
// over the module: hotpath (annotated hot paths must not allocate, lock,
// or block), atomicalign (64-bit atomics must be the typed
// atomic.Int64/Uint64, which every target aligns, never the primitive
// sync/atomic functions), lockscope (no blocking work while a mutex is
// held), lockorder (nested mutex acquisitions must follow declared
// //apollo:lockrank order and stay acyclic), errsink (every error value
// must reach a sink — return, cold-path log, or metric), ctxflow
// (blocking operations reachable from serve roots must be cancellable),
// netguard (outbound HTTP must carry deadlines and retry through
// jittered backoff), and waiverdrift (waiver and blocking annotations
// must still be live). Copy-on-write publication, deterministic bytes and
// goroutine lifetimes are held by tests that run (internal/bg/cowtest,
// TestSameInputsSameBytes, bgtest.NoLeaks; DESIGN §8), not by analyzers.
// One run builds one fact base — call graph, function list, directive
// index — that all selected analyzers share; waiverdrift reads the waiver
// uses the others recorded, so selecting it alone runs the waiving
// analyzers too and discards what they report.
//
// Usage:
//
//	apollo-vet [-analyzers hotpath,lockorder] [-json] [-summary-out f] [package-dir]
//
// The argument selects the module containing the packages to analyze
// (default "."); the whole module is always loaded so cross-package call
// chains resolve. Diagnostics print as file:line:col lines with the
// violating call chain — or, with -json, as one JSON object per line
// (file, line, col, analyzer, message, chain) for CI annotation
// renderers, followed by one final machine-readable summary record
// ({"summary":true, ...}) carrying per-analyzer diagnostic counts and
// wall times, the number of live waivers, and the wall time of the run. -summary-out
// writes that same record to a file on any run that completes analysis,
// so CI can archive it as an artifact without scraping stdout. A final
// "N diagnostics from M analyzers" line goes to stderr on every path,
// including load failures. Any finding exits 1; load or usage errors
// exit 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"apollo/internal/analysis"
)

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

// jsonSummary is the final machine-readable record of one run: the
// shape CI archives and `make vet-bench` writes to
// results/vet_summary.json.
type jsonSummary struct {
	Summary     bool           `json:"summary"`
	Diagnostics int            `json:"diagnostics"`
	PerAnalyzer map[string]int `json:"analyzers"`
	// PerAnalyzerMS is each analyzer's own wall time; analyzers run
	// concurrently, so the entries overlap and do not sum to wall_ms.
	PerAnalyzerMS map[string]float64 `json:"analyzer_wall_ms"`
	WaiversUsed   int                `json:"waivers_used"`
	Packages      int                `json:"packages"`
	WallMS        float64            `json:"wall_ms"`
}

func main() {
	names := flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic per line plus a final summary record")
	summaryOut := flag.String("summary-out", "", "write the JSON summary record to this file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: apollo-vet [flags] [dir]\n\n"+
			"Runs Apollo's static analyzers over the module containing dir.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *names != "" {
		var err error
		analyzers, err = analysis.ByName(*names)
		if err != nil {
			fatal(err, len(analysis.All()))
		}
	}
	summary := func(found int) {
		fmt.Fprintf(os.Stderr, "apollo-vet: %d diagnostics from %d analyzers\n", found, len(analyzers))
	}

	dir := "."
	if flag.NArg() > 0 {
		// Accept "./..." for familiarity with go vet: the module is
		// always analyzed as a whole.
		arg := flag.Arg(0)
		if arg != "./..." && arg != "..." {
			dir = arg
		}
	}
	start := time.Now()
	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		fatal(err, len(analyzers))
	}
	prog, err := analysis.Load(root)
	if err != nil {
		fatal(err, len(analyzers))
	}
	diags, stats := analysis.RunAllStats(prog, analyzers)
	wall := time.Since(start)

	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *jsonOut {
			if err := enc.Encode(jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Chain:    d.Chain,
			}); err != nil {
				fatal(err, len(analyzers))
			}
			continue
		}
		fmt.Println(d.String())
	}
	rec := jsonSummary{
		Summary:       true,
		Diagnostics:   len(diags),
		PerAnalyzer:   stats.PerAnalyzer,
		PerAnalyzerMS: stats.PerAnalyzerMS,
		WaiversUsed:   stats.WaiversUsed,
		Packages:      len(prog.Packages),
		WallMS:        float64(wall.Microseconds()) / 1000,
	}
	if *jsonOut {
		if err := enc.Encode(rec); err != nil {
			fatal(err, len(analyzers))
		}
	}
	if *summaryOut != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*summaryOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err, len(analyzers))
		}
	}
	summary(len(diags))
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// fatal reports a driver error and still prints the summary line that
// CI log scrapers key on, then exits 2.
func fatal(err error, analyzers int) {
	fmt.Fprintln(os.Stderr, "apollo-vet:", err)
	fmt.Fprintf(os.Stderr, "apollo-vet: 0 diagnostics from %d analyzers\n", analyzers)
	os.Exit(2)
}
