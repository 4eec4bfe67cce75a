package bg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// spawnAllowed are the directories, relative to the module root, whose
// non-test code may start goroutines: this package, the worker team
// behind the parallel RAJA policies (its workers are the product's
// "OpenMP threads", joined by Team.Close), and apollo-vet's engine, which
// runs its analyzers side by side and waits for them in the same call.
var spawnAllowed = []string{"internal/bg", "internal/team", "internal/analysis"}

// spawnSites lists what a file starts by itself: go statements, tickers
// and HTTP servers, the three things product code gets from a Group.
// The match is syntactic, through the names the file imports time and
// net/http under.
func spawnSites(fset *token.FileSet, file *ast.File) []string {
	names := map[string]string{} // local package name -> import path
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "time" && path != "net/http" {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = path
	}
	// qualified returns "path.Name" for a selector on an imported package.
	qualified := func(e ast.Expr) string {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && names[pkg.Name] != "" {
			return names[pkg.Name] + "." + sel.Sel.Name
		}
		return ""
	}
	var sites []string
	found := func(n ast.Node, what string) {
		sites = append(sites, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), what))
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			found(n, "go statement")
		case *ast.CallExpr:
			switch q := qualified(n.Fun); q {
			case "time.NewTicker", "time.Tick", "net/http.Serve", "net/http.ServeTLS",
				"net/http.ListenAndServe", "net/http.ListenAndServeTLS":
				found(n, q)
			}
		case *ast.CompositeLit:
			if qualified(n.Type) == "net/http.Server" {
				found(n, "net/http.Server literal")
			}
		}
		return true
	})
	return sites
}

// TestSpawnSitesOnlyHere parses every non-test file of the module and
// fails on a goroutine, ticker or HTTP server started outside the
// allowed directories. It took over from the goleak analyzer: with the
// spawns in one audited package there is nothing left for a per-site
// proof to walk. What it cannot see is a spawn spelled some other way (a
// method value of time.NewTicker, an http.Server built by reflection);
// bgtest.NoLeaks is the check that runs.
func TestSpawnSitesOnlyHere(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if mod, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(mod), "module apollo\n") {
		t.Fatalf("%s is not the module root (%v)", root, err)
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			// benchmark/ is its own module with its own harness; dot
			// directories hold exports of other commits and build output.
			skip := rel == "benchmark" || d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && rel != ".")
			for _, dir := range spawnAllowed {
				skip = skip || rel == dir
			}
			if skip {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, site := range spawnSites(fset, file) {
			t.Errorf("%s outside %s: start it through a bg.Group", site, strings.Join(spawnAllowed, ", "))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpawnSitesSelfTest runs the matcher over a synthetic file holding
// one of everything it must find, under renamed imports, beside the
// look-alikes it must leave alone.
func TestSpawnSitesSelfTest(t *testing.T) {
	const src = `package p

import (
	"net/http"
	clock "time"
)

type server struct{ Server int }

func spawns(ln net.Listener, h http.Handler) {
	go func() {}()
	t := clock.NewTicker(clock.Second)
	<-clock.Tick(clock.Second)
	http.Serve(ln, h)
	http.ListenAndServe(":0", h)
	_ = &http.Server{Handler: h}
	_ = http.Server{}
	_ = t
}

func lookalikes(time struct{ NewTicker func() }, h http.Handler) {
	time.NewTicker()          // a local called time; the package goes by clock here
	clock.Sleep(clock.Second) // not a ticker
	_ = clock.NewTimer(1)     // one shot
	_ = server{Server: 1}     // not net/http's
	_ = http.NewServeMux()    // a mux is not a server
	var s *http.Server        // a declaration starts nothing
	_ = s
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "synthetic.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, site := range spawnSites(fset, file) {
		got = append(got, site[strings.LastIndex(site, ": ")+2:])
	}
	want := []string{"go statement", "time.NewTicker", "time.Tick", "net/http.Serve",
		"net/http.ListenAndServe", "net/http.Server literal", "net/http.Server literal"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("matcher found\n  %q\nwant\n  %q", got, want)
	}
}
