package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Name is the package name from the package clauses.
	Name string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and object facts.
	Info *types.Info
}

// Program is a whole loaded module, the unit analyzers run over.
type Program struct {
	// Fset positions every parsed file.
	Fset *token.FileSet
	// ModulePath is the module path from go.mod.
	ModulePath string
	// Root is the absolute module root directory.
	Root string
	// Packages are the module's packages in dependency (topological)
	// order: a package appears after everything it imports.
	Packages []*Package

	byPath map[string]*Package
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			mod = strings.Trim(mod, `"`)
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Load parses and type-checks every package of the module rooted at
// root. Test files (_test.go), testdata, vendor, and hidden directories
// are skipped. The module's own imports resolve to the freshly checked
// packages; standard-library imports are type-checked from GOROOT
// source, so loading needs no pre-built export data and no external
// tooling.
func Load(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       token.NewFileSet(),
		ModulePath: mod,
		Root:       root,
		byPath:     map[string]*Package{},
	}

	// Parse every package directory.
	var paths []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		pkg, err := parseDir(prog.Fset, path)
		if err != nil {
			return err
		}
		if pkg == nil {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := mod
		if rel != "." {
			importPath = mod + "/" + filepath.ToSlash(rel)
		}
		pkg.Path = importPath
		prog.byPath[importPath] = pkg
		paths = append(paths, importPath)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)

	ordered, err := topoSort(prog, paths)
	if err != nil {
		return nil, err
	}

	// The stdlib fallback importer type-checks GOROOT packages from
	// source; cgo-backed variants (net, os/user) cannot be preprocessed
	// here, so force the pure-Go build configuration — the exported type
	// surface is what matters, and it is identical.
	build.Default.CgoEnabled = false
	fallback := importer.ForCompiler(prog.Fset, "source", nil)

	for _, path := range ordered {
		pkg := prog.byPath[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Instances:  map[*ast.Ident]types.Instance{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{
			Importer: &moduleImporter{prog: prog, fallback: fallback},
		}
		tpkg, err := conf.Check(path, prog.Fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// parseDir parses the non-test Go files of one directory, returning nil
// when the directory holds no Go package.
func parseDir(fset *token.FileSet, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var name string
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") ||
			strings.HasPrefix(fn, ".") || strings.HasPrefix(fn, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if ignored(f) {
			continue
		}
		if name == "" {
			name = f.Name.Name
		}
		if f.Name.Name != name {
			return nil, fmt.Errorf("analysis: %s: mixed packages %q and %q", dir, name, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &Package{Dir: dir, Name: name, Files: files}, nil
}

// ignored reports whether the file opts out of the build ("//go:build
// ignore" tools and generators).
func ignored(f *ast.File) bool {
	for _, g := range f.Comments {
		if g.End() >= f.Package {
			break
		}
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//go:build"))
			if text != c.Text && strings.Contains(text, "ignore") {
				return true
			}
		}
	}
	return false
}

// topoSort orders module packages so every package follows its
// module-internal imports.
func topoSort(prog *Program, paths []string) ([]string, error) {
	const (
		unseen = iota
		visiting
		done
	)
	state := map[string]int{}
	var order []string
	var visit func(path string, trail []string) error
	visit = func(path string, trail []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %s (%s)", path, strings.Join(trail, " -> "))
		}
		state[path] = visiting
		pkg := prog.byPath[path]
		var imports []string
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if _, ok := prog.byPath[p]; ok {
					imports = append(imports, p)
				}
			}
		}
		sort.Strings(imports)
		for _, imp := range imports {
			if err := visit(imp, append(trail, path)); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports to the freshly checked
// packages and everything else through the GOROOT source importer.
type moduleImporter struct {
	prog     *Program
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.prog.byPath[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: import %s before it was checked", path)
		}
		return pkg.Types, nil
	}
	return m.fallback.Import(path)
}
