package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Lifecycle enforces spawn/stop pairing on components: a named type with
// a Start*/Run/Serve or Close/Stop/Shutdown method owns every goroutine
// its methods and constructors spawn, so each long-running spawn must be
// tied to a stop signal the component (or its caller) provably fires —
// and firing it must join, or Close returns while workers still run. For
// every `go` statement in a component method or constructor whose body is
// long-running (a condition-less loop or a range over a channel), the
// analyzer classifies the body's exit signals:
//
//   - a ctx.Done()-style accessor or a channel parameter: caller-owned,
//     accepted;
//   - a channel field of the component: the component's
//     Close/Stop/Shutdown method must fire that field and must join;
//   - a local channel of the spawning function: reported outright. A
//     component outlives the call that spawned its worker, so only a
//     closure the spawner hands out could stop it later — the shape
//     bg.Group replaced. bg's TestSpawnSitesOnlyHere forbids a `go`
//     statement outside internal/bg and internal/team, so stop closures
//     are not traced.
//
// Diagnostics: a long-running spawn with no exit signal at all, a
// spawner-local stop channel, and a Close/Stop that fires the signal but
// never joins. //apollo:ctxok <reason> on the `go` statement's line
// waives a finding (deliberately detached goroutine).
var Lifecycle = &Analyzer{
	Name:   "lifecycle",
	Doc:    "component goroutines must pair with a stop signal that Close/Stop fires and joins",
	run:    runLifecycle,
	waives: []string{dirCtxOK},
}

// component is a module named type with lifecycle methods.
type component struct {
	name    *types.TypeName
	methods map[string]*funcInfo
	// ctors are package functions returning the component type.
	ctors []*funcInfo
}

// isLifecycleName reports the method names that qualify a type as a
// component (it runs something); teardown lives in Close/Stop/Shutdown.
func isLifecycleName(name string) bool {
	return name == "Run" || name == "Serve" || strings.HasPrefix(name, "Start")
}

// namedRecv returns the named type a method's receiver is declared on.
func namedRecv(obj *types.Func) *types.TypeName {
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// buildComponents indexes module components, their methods, and their
// constructors.
func buildComponents(g *graph) map[*types.TypeName]*component {
	comps := map[*types.TypeName]*component{}
	get := func(tn *types.TypeName) *component {
		c := comps[tn]
		if c == nil {
			c = &component{name: tn, methods: map[string]*funcInfo{}}
			comps[tn] = c
		}
		return c
	}
	for _, fi := range g.funcs {
		if tn := namedRecv(fi.obj); tn != nil {
			get(tn).methods[fi.obj.Name()] = fi
		}
	}
	// Constructors: package functions whose results include a component
	// type.
	for _, fi := range g.funcs {
		if fi.obj.Type().(*types.Signature).Recv() != nil {
			continue
		}
		results := fi.obj.Type().(*types.Signature).Results()
		for i := 0; i < results.Len(); i++ {
			t := results.At(i).Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				if c, ok := comps[n.Obj()]; ok {
					c.ctors = append(c.ctors, fi)
				}
			}
		}
	}
	// Only types with a lifecycle are components: they run something
	// (Start*/Run/Serve) or own teardown (Close/Stop/Shutdown) — a type
	// with a Close and worker goroutines is exactly the shape whose
	// spawn/stop pairing must hold.
	for tn, c := range comps {
		qualifies := false
		for name := range c.methods {
			if isLifecycleName(name) || isStopName(name) {
				qualifies = true
			}
		}
		if !qualifies {
			delete(comps, tn)
		}
	}
	return comps
}

// isStopName reports the teardown method names a component may own.
func isStopName(name string) bool {
	return name == "Close" || name == "Stop" || name == "Shutdown"
}

func runLifecycle(f *facts) []Diagnostic {
	comps := buildComponents(f.g)

	type site struct {
		comp *component
		fi   *funcInfo // spawning method or constructor
		stmt *ast.GoStmt
	}
	var sites []site
	for _, c := range comps {
		var owners []*funcInfo
		for _, fi := range c.methods {
			owners = append(owners, fi)
		}
		owners = append(owners, c.ctors...)
		for _, fi := range owners {
			if fi.decl.Body == nil {
				continue
			}
			ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					sites = append(sites, site{c, fi, gs})
				}
				return true
			})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].stmt.Pos() < sites[j].stmt.Pos() })

	var diags []Diagnostic
	seen := map[*ast.GoStmt]bool{}
	for _, s := range sites {
		if seen[s.stmt] {
			continue // a ctor returning two component types reports once
		}
		seen[s.stmt] = true
		diags = append(diags, lifecycleCheckSpawn(f, s.comp, s.fi, s.stmt)...)
	}
	return diags
}

// lifecycleCheckSpawn verifies one go statement against the spawn/stop
// pairing contract.
func lifecycleCheckSpawn(f *facts, comp *component, fi *funcInfo, gs *ast.GoStmt) []Diagnostic {
	g := f.g
	report := func(format string, args ...any) []Diagnostic {
		if f.waived(fi.lines, gs.Pos(), dirCtxOK) {
			return nil
		}
		return []Diagnostic{{
			Pos:      f.prog.Fset.Position(gs.Pos()),
			Analyzer: "lifecycle",
			Message:  fmt.Sprintf(format, args...),
		}}
	}

	// Resolve the goroutine body and its own package/function context:
	// a literal runs in the spawner, a named callee in its declaration.
	var body *ast.BlockStmt
	bodyFi := fi // function whose scope the body's variables live in
	var goroutineParams []*types.Var
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		bindings := methodBindings(fi.pkg, fi.decl.Body)
		callees, _ := g.resolve(fi.pkg, bindings, gs.Call)
		if len(callees) != 1 || callees[0].viaInterface != "" || callees[0].fn.decl.Body == nil {
			return nil // external or dynamic spawn target: out of scope
		}
		bodyFi = callees[0].fn
		body = bodyFi.decl.Body
		goroutineParams = paramObjs(bodyFi)
	}
	if !longRunningBody(bodyFi.pkg, body) {
		return nil // bounded work needs no stop signal
	}

	// Collect candidate exit signals: receives and channel ranges in the
	// goroutine body (select cases included).
	var signals []ast.Expr
	sawDone := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				signals = append(signals, n.X)
			}
		case *ast.RangeStmt:
			if _, isChan := exprChanType(bodyFi.pkg.Info, n.X); isChan {
				signals = append(signals, n.X)
			}
		case *ast.CallExpr:
			// ctx.Done()-style accessor: a zero-arg Done() returning a
			// channel (sync.WaitGroup's Done returns nothing and is not a
			// cancellation signal).
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(n.Args) == 0 {
				if _, isChan := exprChanType(bodyFi.pkg.Info, n); isChan {
					sawDone = true
				}
			}
		}
		return true
	})
	if sawDone {
		return nil // ctx-scoped goroutine: cancellation is caller-owned
	}
	if len(signals) == 0 {
		return report("%s spawns a long-running goroutine with no stop signal; tie it to a channel %s's Close/Stop fires",
			displayName(fi.obj), comp.name.Name())
	}

	// One provably satisfied signal is enough: a select on stop+data only
	// needs the stop leg wired.
	var firstFailure []Diagnostic
	for _, sig := range signals {
		diag := lifecycleCheckSignal(comp, fi, bodyFi, gs, goroutineParams, sig, report)
		if diag == nil {
			return nil
		}
		if firstFailure == nil {
			firstFailure = diag
		}
	}
	return firstFailure
}

// lifecycleCheckSignal proves one candidate exit signal satisfied, or
// returns the diagnostic explaining why it is not.
func lifecycleCheckSignal(comp *component, fi, bodyFi *funcInfo, gs *ast.GoStmt,
	goroutineParams []*types.Var, expr ast.Expr, report func(string, ...any) []Diagnostic) []Diagnostic {
	root, path, ok := pathOf(bodyFi.pkg, expr)
	if !ok {
		return report("%s spawns a goroutine whose stop signal %s cannot be traced to a channel %s controls",
			displayName(fi.obj), types.ExprString(expr), comp.name.Name())
	}

	// Receiver-rooted field path: the component's stop method must fire
	// it and join.
	recvVar := (*types.Var)(nil)
	if sig, ok := bodyFi.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recvVar = sig.Recv()
	}
	if dot := strings.IndexAny(path, ".["); dot >= 0 && (root == recvVar || isComponentTyped(root, comp)) {
		field := fieldOf(path)
		stop := componentStopMethod(comp)
		if stop == nil {
			return report("%s spawns a goroutine ranging over %s but %s has no Close/Stop/Shutdown to fire it",
				displayName(fi.obj), types.ExprString(expr), comp.name.Name())
		}
		if !methodFiresField(stop, field) {
			return report("%s spawns a goroutine stopped by field %s but %s.%s never closes or signals it",
				displayName(fi.obj), field, comp.name.Name(), stop.obj.Name())
		}
		if !bodyJoins(stop.pkg, stop.decl.Body) {
			return report("%s.%s closes %s but never joins the worker goroutines; receive from a done channel or Wait on a WaitGroup before returning",
				comp.name.Name(), stop.obj.Name(), field)
		}
		return nil
	}

	// Plain channel variable: a goroutine parameter maps back to the
	// spawn-site argument; otherwise it is a spawner local or parameter.
	v := root
	if bodyFi != fi {
		mapped := false
		for i, p := range goroutineParams {
			if p == v {
				if arg := lifecycleArgAt(fi, gs.Call, bodyFi, i); arg != nil {
					if av := chanVar(fi.pkg, arg); av != nil {
						v = av
						mapped = true
					}
				}
				break
			}
		}
		if !mapped {
			return nil // untraceable pass-through: trust the caller
		}
	}
	if slices.Contains(paramObjs(fi), v) {
		return nil // caller-owned channel: the caller fires it
	}

	return report("%s spawns a goroutine stopped by its own local channel %s; start it through bg", displayName(fi.obj), v.Name())
}

// fieldOf extracts the first field segment of a pathOf path
// ("t.work[]" -> "work").
func fieldOf(path string) string {
	rest := path
	if i := strings.Index(rest, "."); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexAny(rest, ".["); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// isComponentTyped reports whether a variable holds the component type
// (a constructor's local instance).
func isComponentTyped(v *types.Var, comp *component) bool {
	if v == nil {
		return false
	}
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == comp.name
}

// componentStopMethod returns the component's teardown method, Close
// preferred.
func componentStopMethod(comp *component) *funcInfo {
	for _, name := range []string{"Close", "Stop", "Shutdown"} {
		if fi, ok := comp.methods[name]; ok && fi.decl.Body != nil {
			return fi
		}
	}
	return nil
}

// methodFiresField reports whether a method closes or sends on a
// receiver field with the given name, directly or through a range
// variable over that field.
func methodFiresField(fi *funcInfo, field string) bool {
	recv := fi.obj.Type().(*types.Signature).Recv()
	// Range value variables currently iterating the field.
	rangeVars := map[*types.Var]bool{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		root, path, ok := pathOf(fi.pkg, rs.X)
		if !ok || root != recv || fieldOf(path) != field {
			return true
		}
		if id, ok := rs.Value.(*ast.Ident); ok {
			if v, ok := fi.pkg.Info.Defs[id].(*types.Var); ok {
				rangeVars[v] = true
			}
		}
		return true
	})
	fires := false
	firesExpr := func(e ast.Expr) bool {
		if root, path, ok := pathOf(fi.pkg, e); ok && root == recv && fieldOf(path) == field {
			return true
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := fi.pkg.Info.Uses[id].(*types.Var); ok && rangeVars[v] {
				return true
			}
		}
		return false
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if fires {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if firesExpr(n.Args[0]) {
					fires = true
				}
			}
		case *ast.SendStmt:
			if firesExpr(n.Chan) {
				fires = true
			}
		}
		return true
	})
	return fires
}

// lifecycleArgAt maps a goroutine callee's paramObjs index back to the
// spawn-site argument expression (nil when out of range, e.g. the
// receiver of a bound method call maps to the selector base).
func lifecycleArgAt(fi *funcInfo, call *ast.CallExpr, callee *funcInfo, idx int) ast.Expr {
	hasRecv := callee.obj.Type().(*types.Signature).Recv() != nil
	if hasRecv {
		if idx == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		idx--
	}
	if idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}
