package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PubInit enforces publish-then-initialize hygiene: every write that
// initializes a value must dominate (be sequenced before) the
// atomic.Pointer Store/Swap/CompareAndSwap that publishes it. CowSafe
// catches direct writes after the publish; PubInit catches the
// call-shaped remainder — the published value escaping, after the
// publish, into a function the call graph proves writes through the
// corresponding parameter or receiver ("finish it later" helpers,
// deferred initialization, touch-up methods). Readers that loaded the
// pointer between the Store and the late write observe a
// half-initialized value with no race report to show for it.
//
// Waive a deliberate post-publish mutation with //apollo:cowok
// <reason> on the call's line (or the function's doc comment); the
// publication-discipline analyzers share one waiver vocabulary.
var PubInit = &Analyzer{
	Name:   "pubinit",
	Doc:    "all initialization of a published value must precede its atomic publish",
	run:    runPubInit,
	waives: []string{dirCowOK},
}

func runPubInit(f *facts) []Diagnostic {
	var diags []Diagnostic
	for _, fi := range f.funcs {
		if fi.decl.Body != nil {
			diags = append(diags, pubInitCheckFunc(f, fi)...)
		}
	}
	return diags
}

func pubInitCheckFunc(f *facts, fi *funcInfo) []Diagnostic {
	pkg := fi.pkg
	fset := f.prog.Fset
	flow := newFnFlow(pkg, fi.decl)
	fnWaived := funcCowOK(f, fi)

	var diags []Diagnostic
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, chain []string, format string, args ...any) {
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
			Analyzer: "pubinit",
			Message:  fmt.Sprintf(format, args...),
			Chain:    chain,
		})
	}

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

		ast.Inspect(fi.decl.Body, func(m ast.Node) bool {
			late, ok := m.(*ast.CallExpr)
			if !ok || late == call || !after.contains(late.Pos()) {
				return true
			}
			callees, _ := f.g.resolve(pkg, flow.bindings, late)
			for _, c := range callees {
				if c.viaInterface != "" {
					continue
				}
				mask := f.mut.mutated(c.fn)
				if mask == nil {
					continue
				}
				args := callArgVars(pkg, late)
				for i, v := range args {
					if v == nil || i >= len(mask) || !mask[i] {
						continue
					}
					if !argAliasesRoots(flow, v, roots) {
						continue
					}
					report(late.Pos(), []string{displayName(fi.obj), displayName(c.fn.obj)},
						"%s initializes %s after it was published by atomic.Pointer.%s (line %d): all writes must precede the publish; finish initialization first or waive with //apollo:cowok",
						displayName(c.fn.obj), describeExpr(pub), method, pubLine)
				}
			}
			return true
		})
		return true
	})
	return diags
}

// argAliasesRoots reports whether passing variable v hands the callee a
// way to reach the published value.
func argAliasesRoots(flow *fnFlow, v *types.Var, roots pubRoots) bool {
	if roots.cell != nil {
		if v == roots.cell || flow.sameClass(v, roots.cell) {
			return true
		}
		if u, ok := flow.ptrTo[v]; ok && u == roots.cell {
			return true
		}
	}
	if roots.class != nil && flow.find(v) == roots.class {
		return true
	}
	return false
}
