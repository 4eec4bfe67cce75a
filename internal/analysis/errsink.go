package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// ErrSink enforces the failure-path contract: every error value must
// reach a sink — returned to the caller, logged on a cold path, or
// counted into a metric. It reports:
//
//   - an error result discarded into the blank identifier (`_ = err`,
//     `v, _ := f()`);
//   - a call used as a statement whose results include an error, unless
//     the callee is infallible by contract (fmt print family,
//     strings.Builder / bytes.Buffer / hash.Hash writes) — deferred
//     calls and `go` statements are exempt (their errors have no
//     receiver by construction and are covered by review);
//   - an error variable that is assigned but never read on any path
//     (covers accidental shadowing: the dead outer variable is the
//     diagnostic);
//   - an error variable whose only reads forward it to module functions
//     that provably never observe the parameter (via the errReads
//     summary over the call graph).
//
// //apollo:errok <reason> on the offending line waives one finding;
// waiverdrift reports the directive when it goes stale.
var ErrSink = &Analyzer{
	Name:   "errsink",
	Doc:    "every error value must reach a sink (return, cold-path log, or metric)",
	run:    runErrSink,
	waives: []string{dirErrOK},
}

func runErrSink(f *facts) []Diagnostic {
	var diags []Diagnostic
	for _, fi := range f.funcs {
		if fi.decl.Body != nil {
			diags = append(diags, errSinkCheckFunc(f, fi)...)
		}
	}
	return diags
}

// errSinkCheckFunc scans one function body (closures included) for
// discarded errors.
func errSinkCheckFunc(f *facts, fi *funcInfo) []Diagnostic {
	var diags []Diagnostic
	report := func(pos ast.Node, format string, args ...any) {
		if f.waived(fi.lines, pos.Pos(), dirErrOK) {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:      f.prog.Fset.Position(pos.Pos()),
			Analyzer: "errsink",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	info := fi.pkg.Info
	parents := parentsOf(fi.decl.Body)
	bindings := methodBindings(fi.pkg, fi.decl.Body)

	// Named results are implicitly read by every return.
	namedResults := map[*types.Var]bool{}
	if fi.decl.Type.Results != nil {
		for _, f := range fi.decl.Type.Results.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					namedResults[v] = true
				}
			}
		}
	}

	type varState struct {
		def       *ast.Ident
		reads     int
		discards  []string // module callees that ignore the forwarded error
		forwarded int
	}
	tracked := map[*types.Var]*varState{}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			diags = append(diags, errBlankDiscards(f, fi, n)...)
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			hasErr := false
			for _, t := range callResults(info, call) {
				if isErrorType(t) {
					hasErr = true
				}
			}
			if !hasErr {
				return true
			}
			_, ext := f.g.resolve(fi.pkg, bindings, call)
			if ext != nil && infallibleExternal(ext) {
				return true
			}
			if infallibleReceiver(fi.pkg, call) {
				return true
			}
			report(n, "error result of %s is silently dropped; return it, log it cold-path, or count it", types.ExprString(call.Fun))
		case *ast.Ident:
			// Definitions open tracking; uses close it.
			if v, ok := info.Defs[n].(*types.Var); ok {
				if !isErrorType(v.Type()) || namedResults[v] {
					return true
				}
				if _, isField := parents[n].(*ast.Field); isField {
					return true // parameters/results: covered by errReads
				}
				if n.Name == "_" {
					return true // blank defs handled per-assignment
				}
				tracked[v] = &varState{def: n}
				return true
			}
			v, ok := info.Uses[n].(*types.Var)
			if !ok {
				return true
			}
			st, ok := tracked[v]
			if !ok {
				return true
			}
			switch p := parents[n].(type) {
			case *ast.AssignStmt:
				for _, lhs := range p.Lhs {
					if lhs == ast.Expr(n) {
						return true // overwrite, not a read
					}
				}
			case *ast.CallExpr:
				if p.Fun != ast.Expr(n) {
					if callee := deadErrForward(f, fi, bindings, p, n); callee != "" {
						st.forwarded++
						st.discards = append(st.discards, callee)
						return true
					}
				}
			}
			st.reads++
		}
		return true
	})

	var vars []*types.Var
	for v := range tracked {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return tracked[vars[i]].def.Pos() < tracked[vars[j]].def.Pos() })
	for _, v := range vars {
		st := tracked[v]
		switch {
		case st.reads == 0 && st.forwarded == 0:
			report(st.def, "error %s is assigned but never read (discarded or shadowed); check it or waive with //apollo:errok", v.Name())
		case st.reads == 0:
			report(st.def, "error %s only flows to %s, which never observes its error parameter", v.Name(), st.discards[0])
		}
	}
	return diags
}

// errBlankDiscards reports error results assigned to the blank
// identifier in one assignment.
func errBlankDiscards(f *facts, fi *funcInfo, n *ast.AssignStmt) []Diagnostic {
	info := fi.pkg.Info
	var diags []Diagnostic
	report := func(pos ast.Node, what string) {
		if f.waived(fi.lines, pos.Pos(), dirErrOK) {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:      f.prog.Fset.Position(pos.Pos()),
			Analyzer: "errsink",
			Message:  fmt.Sprintf("error result of %s is discarded into _; handle it or waive with //apollo:errok", what),
		})
	}
	for i, lhs := range n.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		var t types.Type
		what := "the expression"
		if len(n.Lhs) == len(n.Rhs) {
			t = exprType(info, n.Rhs[i])
			what = types.ExprString(n.Rhs[i])
		} else if len(n.Rhs) == 1 {
			// Multi-value: v, _ := f()
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				results := callResults(info, call)
				if i < len(results) {
					t = results[i]
				}
				what = types.ExprString(call.Fun)
			}
		}
		if isErrorType(t) {
			report(id, what)
		}
	}
	return diags
}

// deadErrForward reports the display name of the callee when passing id
// as an argument provably discards it: every static module callee
// ignores the corresponding error parameter. Empty when the forward is
// (or may be) a real sink.
func deadErrForward(f *facts, fi *funcInfo,
	bindings map[types.Object]*types.Func, call *ast.CallExpr, id *ast.Ident) string {
	callees, ext := f.g.resolve(fi.pkg, bindings, call)
	if ext != nil || len(callees) == 0 {
		return ""
	}
	argIdx := -1
	for i, v := range callArgVars(fi.pkg, call) {
		if v != nil && v == fi.pkg.Info.Uses[id] {
			argIdx = i
			break
		}
	}
	if argIdx < 0 {
		return ""
	}
	name := ""
	for _, c := range callees {
		if c.viaInterface != "" {
			return ""
		}
		sub := f.errs.reads(c.fn)
		if argIdx >= len(sub) || sub[argIdx] {
			return ""
		}
		name = displayName(c.fn.obj)
	}
	return name
}
