package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SharedCap flags the capture-then-keep-writing race: a goroutine
// closure (go func(){...}()) or a stored callback (a function literal
// assigned to a struct field or package variable) captures a mutable
// local, and the spawner keeps writing that local after the goroutine
// is launched or the callback escapes. Both sides now touch the same
// cell with no happens-before edge — the pattern behind the original
// uploader.Flush bug and the PR-4 drift-retrigger flap. The fix is to
// pass the value as an argument, copy it before the spawn, or move the
// writes before the go statement; a deliberately shared cell
// (externally synchronized) is waived with //apollo:sharedcapok
// <reason> on the go statement's, the assignment's, or the write's
// line.
//
// Reads by the closure count as capture: the race needs only one
// writer. Captures whose every use is a method call (sync.Mutex,
// sync.WaitGroup, atomic values) are not flagged — method-mediated
// state carries its own synchronization and is never written by
// assignment.
var SharedCap = &Analyzer{
	Name:   "sharedcap",
	Doc:    "goroutine closures and stored callbacks must not share locals the spawner keeps writing",
	run:    runSharedCap,
	waives: []string{dirSharedCapOK},
}

func runSharedCap(f *facts) []Diagnostic {
	var diags []Diagnostic
	for _, fi := range f.funcs {
		if fi.decl.Body != nil {
			diags = append(diags, sharedCapCheckFunc(f, fi)...)
		}
	}
	return diags
}

// escape is one point where a function literal leaves the spawner's
// control: a go statement or a store into a field/global.
type escape struct {
	lit  *ast.FuncLit
	pos  token.Pos // the go statement or assignment, for waiver lookup
	kind string    // "go statement" or "stored callback"
}

func sharedCapCheckFunc(f *facts, fi *funcInfo) []Diagnostic {
	pkg := fi.pkg
	fset := f.prog.Fset
	parents := parentsOf(fi.decl.Body)
	writes := writesIn(pkg, fi.decl.Body)

	var escapes []escape
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				escapes = append(escapes, escape{lit: lit, pos: n.Pos(), kind: "go statement"})
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if storedTarget(pkg, n.Lhs[i]) {
					escapes = append(escapes, escape{lit: lit, pos: n.Pos(), kind: "stored callback"})
				}
			}
		}
		return true
	})

	var diags []Diagnostic
	for _, esc := range escapes {
		captured := capturedVars(pkg, fi, esc.lit)
		if len(captured) == 0 {
			continue
		}
		stmt := enclosingStmt(parents, esc.lit)
		if stmt == nil {
			continue
		}
		after := computeAfter(parents, stmt)
		reported := map[*types.Var]bool{}
		for _, w := range writes {
			if !after.contains(w.pos) || within(esc.lit, w.pos) || w.inGo {
				continue
			}
			v, ok := baseVar(pkg, w.base)
			if !ok || !captured[v] || reported[v] {
				continue
			}
			if f.waived(fi.lines, esc.pos, dirSharedCapOK) || f.waived(fi.lines, w.pos, dirSharedCapOK) {
				reported[v] = true
				continue
			}
			reported[v] = true
			diags = append(diags, Diagnostic{
				Pos:      fset.Position(esc.pos),
				Analyzer: "sharedcap",
				Message: fmt.Sprintf("%s captures %q, which the spawner writes afterwards (line %d): unsynchronized shared write; pass it as an argument, copy it first, or waive with //apollo:sharedcapok",
					esc.kind, v.Name(), fset.Position(w.pos).Line),
			})
		}
	}
	return diags
}

// storedTarget reports whether the assignment target outlives the
// function: a struct field, an element of a non-local container, or a
// package-level variable. Plain locals holding a closure are not
// escapes — calling them is ordinary sequential control flow.
func storedTarget(pkg *Package, lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
			// Package-level variable.
			return v.Parent() == pkg.Types.Scope()
		}
	}
	return false
}

// capturedVars returns the locals of fi that the literal captures and
// uses in a way a concurrent write could race with: any identifier use
// that is not purely the receiver of a method call. Variables of
// self-synchronizing types (mutexes, wait groups, atomics, channels,
// sync.Once) are skipped entirely.
func capturedVars(pkg *Package, fi *funcInfo, lit *ast.FuncLit) map[*types.Var]bool {
	parents := parentsOf(lit)
	out := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil {
			return true
		}
		// Declared in the enclosing function, outside the literal.
		if v.Pos() < fi.decl.Pos() || v.Pos() >= fi.decl.End() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		if selfSynchronized(v.Type()) {
			return true
		}
		// x.M(...) where x is only a method receiver: the method
		// mediates the access.
		if sel, ok := parents[id].(*ast.SelectorExpr); ok && sel.X == ast.Expr(id) {
			if call, ok := parents[sel].(*ast.CallExpr); ok && call.Fun == ast.Expr(sel) {
				if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
					return true
				}
			}
		}
		out[v] = true
		return true
	})
	return out
}

// selfSynchronized reports types whose shared use is the point: sync
// primitives, atomics, and channels.
func selfSynchronized(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// within reports whether pos falls inside node's source range.
func within(node ast.Node, pos token.Pos) bool {
	return pos >= node.Pos() && pos < node.End()
}
