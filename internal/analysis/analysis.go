// Package analysis is apollo-vet's engine: a from-scratch static-analysis
// driver built directly on the standard library's go/parser and go/types
// (this module is intentionally dependency-free, so the package loader,
// type-checker wiring, diagnostic model, and analyzers are all local —
// no golang.org/x/tools).
//
// The analyzers enforce the runtime invariants Apollo's serving stack is
// built on, turning what used to be prose comments ("lock-free",
// "allocates nothing") into machine-checked annotations:
//
//   - hotpath: functions annotated //apollo:hotpath — and their
//     transitive callees inside the module, through the type-checked
//     call graph including method values and interface dispatch where a
//     module-local concrete type is known — must not allocate, lock,
//     touch channels, or call time.Now / fmt.* / log.* / any
//     //apollo:blocking function;
//   - atomicalign: no primitive 64-bit sync/atomic function (AddInt64,
//     LoadUint64, ...) — only the typed atomic.Int64/Uint64, which the
//     compiler aligns on every target, 32-bit ones included;
//   - lockscope: no file/network I/O, channel operation, or
//     //apollo:blocking call while a sync.Mutex/RWMutex is held;
//   - lockorder: nested mutex acquisitions must follow the ranks declared
//     with //apollo:lockrank on the mutex declarations (lock identity is
//     the package-qualified field or variable), and the global
//     acquisition graph must be acyclic;
//   - errsink: every error value must reach a sink — returned, logged on
//     a cold path, or counted into a metric; discards into _, dropped
//     error results of statement calls, and errors forwarded to functions
//     that provably never observe them (through module-wide error-
//     parameter-read summaries over the call graph) are diagnostics;
//   - ctxflow: blocking operations reachable from daemon serve/loop
//     roots (main/run* in main packages, Run/Serve/Start* methods) must
//     be cancellable — no time.Sleep, no bare receive or unbuffered send
//     outside a select, no select without a default or stop-signal case;
//   - netguard: outbound HTTP must carry deadlines — no http.Get /
//     http.DefaultClient / timeout-less http.Client literal — and retry
//     loops around network calls must route through the jittered backoff
//     helpers (no waiver: every finding has a mechanical fix);
//   - waiverdrift: every waiver directive must still suppress at least
//     one diagnostic, and //apollo:blocking functions must actually be
//     able to block, so the annotation contract cannot rot.
//
// A run is one pass over one fact base (facts): RunAllStats builds the
// call graph, the position-sorted function list, each file's directive
// index and the shared summaries once, hands them to every selected
// analyzer concurrently, and every waiver an analyzer honours is
// recorded in the run's one waiverUse — which waiverdrift reads after
// the others have finished instead of running them again.
//
// Annotation contract (all are line comments, no space after //):
//
//	//apollo:hotpath                   function is a launch hot path root
//	//apollo:blocking                  function may block (banned from hot
//	                                   paths and from held-lock regions)
//	//apollo:coldpath <reason>         rare/amortized path: hotpath
//	                                   traversal stops here; reason required
//	//apollo:allocok <reason>          suppress one hotpath allocation
//	                                   finding on this line; reason required
//	//apollo:lockok <reason>           suppress lockscope findings for this
//	                                   function or statement; reason required
//	//apollo:lockrank <N>              on a sync.Mutex/RWMutex field or
//	                                   var declaration: nested acquisitions
//	                                   must strictly increase the rank
//	//apollo:errok <reason>            suppress an errsink finding on this
//	                                   line (deliberate best-effort
//	                                   discard); reason required
//	//apollo:ctxok <reason>            suppress a ctxflow finding on this
//	                                   line; reason required
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// a message, and (for hotpath findings) the call chain from the
// annotated root to the violating function.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Chain is the call path root -> ... -> violating function, each
	// entry a printable function name. Empty for non-hotpath findings.
	Chain []string
}

// String renders the diagnostic in the classic file:line:col form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
	if len(d.Chain) > 1 {
		s += fmt.Sprintf("\n\tcall chain: %s", strings.Join(d.Chain, " -> "))
	}
	return s
}

// Analyzer is one named pass over a run's fact base.
type Analyzer struct {
	Name string
	Doc  string
	// run reports the analyzer's findings; every waiver directive it
	// honours on the way is marked in f.uses.
	run func(f *facts) []Diagnostic
	// waives names the waiver directives the analyzer honours: waiverdrift
	// can call one of them stale only after this analyzer has run.
	waives []string
}

// All returns the full apollo-vet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{HotPath, AtomicAlign, LockScope, LockOrder, ErrSink,
		CtxFlow, NetGuard, WaiverDrift}
}

// waiverDirectives is every directive some analyzer of the suite honours
// as a waiver: the ones waiverdrift holds to account.
func waiverDirectives() map[string]bool {
	dirs := map[string]bool{}
	for _, a := range All() {
		for _, d := range a.waives {
			dirs[d] = true
		}
	}
	return dirs
}

// ByName returns the analyzers with the given comma-separated names.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, want := range strings.Split(names, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == want {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", want)
		}
	}
	return out, nil
}

// RunAll runs the analyzers in parallel over the program and returns the
// combined diagnostics sorted by position.
func RunAll(prog *Program, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunAllStats(prog, analyzers)
	return diags
}

// Stats summarizes one analyzer run for machine consumers (the driver's
// -json summary record and results/VET_BASELINE.json).
type Stats struct {
	// PerAnalyzer counts diagnostics by analyzer name; analyzers that
	// ran clean appear with a zero count, so CI diffs see them.
	PerAnalyzer map[string]int
	// WaiversUsed is how many distinct waiver directives suppressed at
	// least one finding during this run.
	WaiversUsed int
	// PerAnalyzerMS is each analyzer's wall time in milliseconds; the
	// analyzers run concurrently, so entries overlap and do not sum to
	// the run's wall time.
	PerAnalyzerMS map[string]float64
}

// RunAllStats is RunAll plus per-analyzer accounting. The fact base is
// built once and shared. waiverdrift reads the waiver uses the other
// analyzers leave behind, so it runs after them; a waiving analyzer it
// needs that was not selected runs too, its diagnostics discarded.
func RunAllStats(prog *Program, analyzers []*Analyzer) ([]Diagnostic, Stats) {
	f := newFacts(prog)
	var first []*Analyzer
	for _, a := range analyzers {
		if a != WaiverDrift {
			first = append(first, a)
		}
	}
	selected := len(first)
	drift := selected < len(analyzers)
	if drift {
		for _, a := range All() {
			if len(a.waives) > 0 && !slices.Contains(analyzers, a) {
				first = append(first, a)
			}
		}
	}

	results := make([][]Diagnostic, len(first))
	elapsed := make([]time.Duration, len(first))
	var wg sync.WaitGroup
	for i, a := range first {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			start := time.Now()
			results[i] = a.run(f)
			elapsed[i] = time.Since(start)
		}(i, a)
	}
	wg.Wait()

	stats := Stats{PerAnalyzer: map[string]int{}, PerAnalyzerMS: map[string]float64{}}
	var all []Diagnostic
	record := func(a *Analyzer, diags []Diagnostic, took time.Duration) {
		stats.PerAnalyzer[a.Name] += len(diags)
		stats.PerAnalyzerMS[a.Name] += float64(took.Microseconds()) / 1000
		all = append(all, diags...)
	}
	for i, a := range first[:selected] {
		record(a, results[i], elapsed[i])
	}
	if drift {
		start := time.Now()
		diags := WaiverDrift.run(f)
		record(WaiverDrift, diags, time.Since(start))
	}
	stats.WaiversUsed = f.uses.count()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return all, stats
}

// Directive names (the text after "//apollo:").
const (
	dirHotPath  = "hotpath"
	dirBlocking = "blocking"
	dirColdPath = "coldpath"
	dirAllocOK  = "allocok"
	dirLockOK   = "lockok"
	dirLockRank = "lockrank"
	dirErrOK    = "errok"
	dirCtxOK    = "ctxok"
)

// directive is one parsed //apollo:* comment.
type directive struct {
	name string // "hotpath", "blocking", ...
	args string // trailing text after the name (reason / arguments)
	pos  token.Pos
}

// parseDirectives extracts //apollo:* directives from a comment group.
func parseDirectives(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text, ok := strings.CutPrefix(c.Text, "//apollo:")
			if !ok {
				continue
			}
			name, args, _ := strings.Cut(text, " ")
			out = append(out, directive{name: name, args: strings.TrimSpace(args), pos: c.Slash})
		}
	}
	return out
}

// funcDirective reports whether fn's doc comment carries the named
// directive, returning its arguments and the directive comment's
// position, which waiver-use tracking keys on.
func funcDirective(fn *ast.FuncDecl, name string) (string, token.Pos, bool) {
	for _, d := range parseDirectives(fn.Doc) {
		if d.name == name {
			return d.args, d.pos, true
		}
	}
	return "", token.NoPos, false
}

// lineDirectives indexes every //apollo:* directive in a file by the
// line it appears on, for statement-level exemptions (allocok, lockok).
func lineDirectives(fset *token.FileSet, file *ast.File) map[int][]directive {
	out := map[int][]directive{}
	for _, g := range file.Comments {
		for _, d := range parseDirectives(g) {
			line := fset.Position(d.pos).Line
			out[line] = append(out[line], d)
		}
	}
	return out
}

// lineDirectiveAt returns the named directive (with a non-empty reason)
// on the line of pos.
func lineDirectiveAt(lines map[int][]directive, fset *token.FileSet, pos token.Pos, name string) (directive, bool) {
	for _, d := range lines[fset.Position(pos).Line] {
		if d.name == name && d.args != "" {
			return d, true
		}
	}
	return directive{}, false
}

// waiverUse records which waiver directives actually suppressed a
// diagnostic, keyed by the directive comment's position; one per run,
// marked by the run's concurrent analyzers and read by waiverdrift.
type waiverUse struct {
	mu   sync.Mutex
	used map[token.Pos]bool
}

func (w *waiverUse) mark(pos token.Pos) {
	if !pos.IsValid() {
		return
	}
	w.mu.Lock()
	if w.used == nil {
		w.used = map[token.Pos]bool{}
	}
	w.used[pos] = true
	w.mu.Unlock()
}

func (w *waiverUse) isUsed(pos token.Pos) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.used[pos]
}

func (w *waiverUse) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.used)
}
