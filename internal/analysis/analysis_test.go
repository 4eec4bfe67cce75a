package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts the expectation regexp from a `// want `+"`re`"+“ comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// expectation is one `// want` marker: a diagnostic matching re must be
// reported on this exact line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadExpectations parses every `// want` marker in the Go files under
// dir, keyed by the line the comment sits on.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	var out []*expectation
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", fset.Position(c.Pos()), m[1], err)
				}
				pos := fset.Position(c.Pos())
				out = append(out, &expectation{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
			}
		}
	}
	return out
}

// runCorpus loads one testdata module, runs the named analyzers, and
// checks the diagnostics against the module's `// want` markers in both
// directions: every diagnostic must be expected, every expectation met.
func runCorpus(t *testing.T, module string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", module))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir)
	if err != nil {
		t.Fatalf("load %s: %v", module, err)
	}
	diags := RunAll(prog, analyzers)
	expects := loadExpectations(t, dir)

	for _, d := range diags {
		matched := false
		for _, e := range expects {
			if e.file == filepath.Base(d.Pos.Filename) && e.line == d.Pos.Line && e.re.MatchString(d.Message) {
				e.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.re)
		}
	}
	return diags
}

func TestHotPathCorpus(t *testing.T) {
	diags := runCorpus(t, "hotpathmod", []*Analyzer{HotPath})

	// The ISSUE's demonstration case: a time.Now smuggled into a hot
	// function through a module callee must surface with the full call
	// chain, not just the leaf position.
	var chained bool
	for _, d := range diags {
		if strings.Contains(d.Message, "time.") && len(d.Chain) > 1 {
			chained = true
			if got := d.String(); !strings.Contains(got, "call chain:") {
				t.Errorf("chained diagnostic renders without its chain:\n%s", got)
			}
		}
	}
	if !chained {
		t.Error("no transitive time.Now diagnostic carried a call chain")
	}
}

// TestCtreeCorpus pins the compiled-decision-path contract: the flat
// threaded-array walk idiom (including dynamic dispatch of an installed
// predict closure and a coldpath specialization builder) analyzes
// clean, while growing trails, locking the walk, or boxing the class
// produce exactly the marked diagnostics.
func TestCtreeCorpus(t *testing.T) {
	diags := runCorpus(t, "ctreemod", []*Analyzer{HotPath})
	for _, d := range diags {
		for _, clean := range []string{"PredictInstalled", "SwapAndPredict", "newFunc"} {
			for _, link := range d.Chain {
				if strings.Contains(link, clean) {
					t.Errorf("clean function %s implicated: %s", clean, d.String())
				}
			}
		}
	}
}

func TestAtomicAlignCorpus(t *testing.T) {
	runCorpus(t, "atomicmod", []*Analyzer{AtomicAlign})
}

func TestLockScopeCorpus(t *testing.T) {
	runCorpus(t, "lockmod", []*Analyzer{LockScope})
}

func TestLockOrderCorpus(t *testing.T) {
	diags := runCorpus(t, "lockordermod", []*Analyzer{LockOrder})

	// A transitive acquisition must carry the module call path so the
	// nesting is traceable without re-deriving the call graph by hand.
	var chained bool
	for _, d := range diags {
		if strings.Contains(d.Message, "lockordermod.muStore") && len(d.Chain) > 1 {
			chained = true
		}
	}
	if !chained {
		t.Error("no call-mediated lock acquisition carried a call chain")
	}
}

func TestErrSinkCorpus(t *testing.T) {
	runCorpus(t, "errmod", []*Analyzer{ErrSink})
}

func TestCtxFlowCorpus(t *testing.T) {
	diags := runCorpus(t, "ctxmod", []*Analyzer{CtxFlow})

	// The helper's bare receive is reported through the StartDrain root,
	// so the diagnostic must carry the discovery chain.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "bare receive") {
			found = true
			if !strings.Contains(strings.Join(d.Chain, " -> "), "StartDrain") {
				t.Errorf("bare-receive diagnostic lacks its call chain: %s", d)
			}
		}
	}
	if !found {
		t.Error("no bare-receive diagnostic in ctxmod")
	}
}

func TestNetGuardCorpus(t *testing.T) {
	runCorpus(t, "netmod", []*Analyzer{NetGuard})
}

func TestWaiverDriftCorpus(t *testing.T) {
	// Selected alone, waiverdrift still needs the waiving analyzers' uses:
	// the run executes them and discards what they report.
	diags := runCorpus(t, "waivermod", []*Analyzer{WaiverDrift})

	// Exactly the stale annotations may be reported: the live waivers in
	// the same file must have been marked used by the waiving analyzers.
	for _, d := range diags {
		if !strings.Contains(d.Message, "stale //apollo:") {
			t.Errorf("waiverdrift emitted a non-staleness diagnostic: %s", d)
		}
	}

	// Alone or as the last of the suite, it reads the same record.
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "waivermod"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var inSuite []Diagnostic
	for _, d := range RunAll(prog, All()) {
		if d.Analyzer == WaiverDrift.Name {
			inSuite = append(inSuite, d)
		}
	}
	if !reflect.DeepEqual(diags, inSuite) {
		t.Errorf("waiverdrift alone reported\n%v\nbut as part of the suite\n%v", diags, inSuite)
	}
}

// TestOneFactBasePerRun pins the run model: however many analyzers are
// selected — waiverdrift alone included, which makes the run execute
// every waiving analyzer — the call graph is built once.
func TestOneFactBasePerRun(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "waivermod"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range [][]*Analyzer{All(), {WaiverDrift}, {HotPath, LockOrder}} {
		before := graphBuilds.Load()
		RunAll(prog, sel)
		if n := graphBuilds.Load() - before; n != 1 {
			t.Errorf("RunAll over %d analyzers built the call graph %d times, want 1", len(sel), n)
		}
	}
}

// TestByName keeps the -analyzers flag surface honest.
func TestByName(t *testing.T) {
	got, err := ByName("hotpath,atomicalign")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != HotPath || got[1] != AtomicAlign {
		t.Fatalf("ByName returned %v", got)
	}
	// goleak retired for the spawn-site test and bgtest.NoLeaks
	// (internal/bg): selecting it is an error like any unknown name.
	for _, unknown := range []string{"nosuch", "goleak"} {
		if _, err := ByName(unknown); err == nil {
			t.Fatalf("ByName accepted the unknown analyzer %q", unknown)
		}
	}
	if n := len(All()); n != 8 {
		t.Fatalf("All() returns %d analyzers, want the eight DESIGN §8 lists", n)
	}
}

// TestDiagnosticString pins the rendering contract the corpus regexps
// and CI logs rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Analyzer: "hotpath",
		Message:  "calls time.Now on the hot path",
		Chain:    []string{"pkg.Outer", "pkg.inner"},
	}
	want := "x.go:3:7: [hotpath] calls time.Now on the hot path\n\tcall chain: pkg.Outer -> pkg.inner"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestVetSelfCheck runs every analyzer over the apollo module itself:
// the repo must stay clean so `make lint` can gate CI.
func TestVetSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, stats := RunAllStats(prog, All())
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos.Line < diags[j].Pos.Line })
	for _, d := range diags {
		t.Errorf("module is not vet-clean: %s", d)
	}

	// Every waiver directive in the module is live: the count the run
	// reports (and results/VET_BASELINE.json ratchets) is the count of
	// directives in the source, none stale.
	waiverDirs := waiverDirectives()
	directives := 0
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, d := range parseDirectives(file.Comments...) {
				if waiverDirs[d.name] {
					directives++
				}
			}
		}
	}
	if stats.WaiversUsed != directives || directives == 0 {
		t.Errorf("WaiversUsed = %d, but the module carries %d waiver directives", stats.WaiversUsed, directives)
	}
	if len(diags) > 0 {
		t.Log(fmt.Sprintf("%d finding(s); fix them or waive with //apollo:coldpath, //apollo:allocok, or //apollo:lockok plus a reason", len(diags)))
	}
}
