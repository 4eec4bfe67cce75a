package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// CowSafe enforces the copy-on-write publication discipline every
// lock-free path in the module rests on: a value published through an
// atomic.Pointer Store/Swap/CompareAndSwap is frozen at the publish
// call — no write through any alias of it may be sequenced after —
// and a value obtained from Load (or the old value returned by Swap)
// is read-only: writes to its fields, map entries, or slice elements
// are diagnostics. -race rarely catches this class because the racing
// reader has to hit the mutated word in the narrow window; the
// discipline is checkable statically, so it is checked statically.
//
// Deliberate exceptions (a mutable ring behind a pointer with its own
// claim protocol, quiesced-buffer recycling) are waived with
// //apollo:cowok <reason> — on the write's line, or on the function's
// doc comment to waive a whole deliberately-mutating function.
var CowSafe = &Analyzer{
	Name:   "cowsafe",
	Doc:    "values published through atomic.Pointer are frozen; Load results are read-only",
	run:    runCowSafe,
	waives: []string{dirCowOK},
}

func runCowSafe(f *facts) []Diagnostic {
	var diags []Diagnostic
	for _, fi := range f.funcs {
		if fi.decl.Body != nil {
			diags = append(diags, cowCheckFunc(f, fi)...)
		}
	}
	return diags
}

// funcCowOK reports a function-level //apollo:cowok waiver (with a
// reason), recording its use.
func funcCowOK(f *facts, fi *funcInfo) bool {
	if args, pos, ok := funcDirective(fi.decl, dirCowOK); ok && args != "" {
		f.uses.mark(pos)
		return true
	}
	return false
}

func cowCheckFunc(f *facts, fi *funcInfo) []Diagnostic {
	pkg := fi.pkg
	fset := f.prog.Fset
	flow := newFnFlow(pkg, fi.decl)
	writes := writesIn(pkg, fi.decl.Body)
	fnWaived := funcCowOK(f, fi)

	var diags []Diagnostic
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if seen[pos] {
			return
		}
		if fnWaived || f.waived(fi.lines, pos, dirCowOK) {
			seen[pos] = true
			return
		}
		seen[pos] = true
		diags = append(diags, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "cowsafe",
			Message:  fmt.Sprintf(format, args...),
		})
	}

	// Rule 1: no write through any alias of a published value after the
	// publish call.
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := atomicPtrCall(pkg, flow.bindings, call)
		if !ok || method == "Load" {
			return true
		}
		pub := publishedArg(method, call)
		if pub == nil {
			return true
		}
		roots := flow.rootsOf(pub)
		if roots.empty() {
			return true
		}
		stmt := enclosingStmt(flow.parents, call)
		if stmt == nil {
			return true
		}
		after := computeAfter(flow.parents, stmt)
		pubLine := fset.Position(call.Pos()).Line
		for _, w := range writes {
			if !after.contains(w.pos) || !flow.hits(w, roots) {
				continue
			}
			report(w.pos,
				"write to %s after it was published by atomic.Pointer.%s (line %d): published values are frozen; build a fresh copy and republish, or waive with //apollo:cowok",
				describeExpr(pub), method, pubLine)
		}
		return true
	})

	// Rule 2: values reached through Load (or Swap's old value) are
	// read-only.
	for _, w := range writes {
		if w.rebind {
			continue
		}
		if flow.loadDerived(w.base) {
			report(w.pos,
				"write through a value obtained from atomic.Pointer.Load: published values are read-only; clone before mutating, or waive with //apollo:cowok")
		}
	}
	return diags
}

// describeExpr renders the published expression compactly for
// diagnostics ("&next", "e", "sh.spare").
func describeExpr(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return "&" + describeExpr(x.X)
		}
	case *ast.SelectorExpr:
		return describeExpr(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return describeExpr(x.X) + "[...]"
	case *ast.CompositeLit:
		if t := x.Type; t != nil {
			if id, ok := t.(*ast.Ident); ok {
				return id.Name + "{...}"
			}
		}
		return "composite literal"
	case *ast.StarExpr:
		return "*" + describeExpr(x.X)
	}
	return "the published value"
}
