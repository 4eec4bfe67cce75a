package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces cancellation discipline on daemon code: every
// blocking operation reachable from a serve/loop root must be
// cancellable, or a stuck peer turns into a stuck replica. Roots are
// functions in main packages named main or run*, and module functions or
// methods named Run, Serve, or Start* (the daemon entry points and the
// component lifecycles they start). From each root it walks the static
// module call graph — including function literals, so goroutine bodies
// are part of the tree — and reports:
//
//   - time.Sleep (uncancellable by construction; select on a timer and
//     a stop signal instead);
//   - a channel receive outside a select, unless the channel is a stop
//     signal by name (stop/done/quit/exit/close/shutdown/cancel, or a
//     ctx.Done()-style accessor) — `for range ch` is exempt because
//     close(ch) ends it;
//   - a send on a channel provably constructed unbuffered everywhere,
//     outside a select (the receiver dying blocks the sender forever);
//   - a select with no default case and no stop-signal receive among its
//     cases (nothing can end the wait but traffic).
//
// Outbound network calls are deliberately not flagged here: their
// deadline discipline is netguard's half of the contract (clients must
// carry timeouts), which makes them cancellable without a select.
//
// //apollo:ctxok <reason> on the line waives one finding; waiverdrift
// reports the directive when it goes stale.
var CtxFlow = &Analyzer{
	Name:   "ctxflow",
	Doc:    "blocking operations reachable from daemon roots must be cancellable",
	run:    runCtxFlow,
	waives: []string{dirCtxOK},
}

// ctxRoot reports whether a function is a daemon serve/loop entry point.
func ctxRoot(fi *funcInfo) bool {
	name := fi.obj.Name()
	if fi.pkg.Types.Name() == "main" {
		if name == "main" || (len(name) > 3 && name[:3] == "run") {
			return true
		}
	}
	return name == "Run" || name == "Serve" || (len(name) >= 5 && name[:5] == "Start")
}

func runCtxFlow(f *facts) []Diagnostic {
	// BFS over static module calls, keeping the first-discovery chain for
	// diagnostics; each function is scanned once.
	type item struct {
		fi    *funcInfo
		chain []string
	}
	seen := map[*types.Func]bool{}
	var queue []item
	for _, r := range f.funcs {
		if r.decl.Body != nil && ctxRoot(r) {
			seen[r.obj] = true
			queue = append(queue, item{r, []string{displayName(r.obj)}})
		}
	}
	var diags []Diagnostic
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		fi := it.fi
		bindings := methodBindings(fi.pkg, fi.decl.Body)
		diags = append(diags, ctxScanBody(f, fi, it.chain)...)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callees, _ := f.g.resolve(fi.pkg, bindings, call)
			for _, c := range callees {
				if c.viaInterface != "" || c.fn.decl.Body == nil || seen[c.fn.obj] {
					continue
				}
				seen[c.fn.obj] = true
				queue = append(queue, item{c.fn, append(append([]string{}, it.chain...), displayName(c.fn.obj))})
			}
			return true
		})
	}
	return diags
}

// ctxScanBody checks one reachable function body (goroutine and closure
// literals included) for uncancellable blocking operations.
func ctxScanBody(f *facts, fi *funcInfo, chain []string) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		if f.waived(fi.lines, n.Pos(), dirCtxOK) {
			return
		}
		d := Diagnostic{
			Pos:      f.prog.Fset.Position(n.Pos()),
			Analyzer: "ctxflow",
			Message:  fmt.Sprintf(format, args...),
		}
		if len(chain) > 1 {
			d.Chain = chain
		}
		diags = append(diags, d)
	}
	bindings := methodBindings(fi.pkg, fi.decl.Body)

	// Comm statements of selects are judged as part of the select, not as
	// bare channel operations.
	inSelect := map[ast.Node]bool{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if comm, ok := c.(*ast.CommClause); ok && comm.Comm != nil {
				inSelect[comm.Comm] = true
				if es, ok := comm.Comm.(*ast.ExprStmt); ok {
					inSelect[es.X] = true
				}
				if as, ok := comm.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
					inSelect[as.Rhs[0]] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			if !cancellableSelect(n) {
				report(n, "select has no default case and no stop-signal receive; nothing can cancel the wait")
			}
		case *ast.SendStmt:
			if inSelect[ast.Node(n)] {
				return true
			}
			if v := chanVar(fi.pkg, n.Chan); f.chans().knownUnbuffered(v) && !stopNamed(n.Chan) {
				report(n, "send on unbuffered channel %s blocks forever if the receiver is gone; select with a stop case or buffer the channel", types.ExprString(n.Chan))
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || inSelect[ast.Node(n)] {
				return true
			}
			if !stopNamed(n.X) {
				report(n, "bare receive from %s cannot be cancelled; select on it together with a stop signal", types.ExprString(n.X))
			}
		case *ast.CallExpr:
			if ext := staticCallee(fi.pkg, bindings, n); ext != nil {
				if ext.Pkg() != nil && ext.Pkg().Path() == "time" && ext.Name() == "Sleep" {
					report(n, "time.Sleep cannot be cancelled; select on a stop signal and a timer instead")
				}
			}
		}
		return true
	})
	return diags
}

// cancellableSelect reports whether a select can end without traffic: a
// default case, or a receive case on a stop-named channel / ctx.Done().
func cancellableSelect(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		comm, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if comm.Comm == nil {
			return true // default
		}
		var recv ast.Expr
		switch s := comm.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recv = u.X
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recv = u.X
				}
			}
		}
		if recv != nil && stopNamed(recv) {
			return true
		}
	}
	return false
}

// staticCallee resolves a call to the single function object it
// statically targets (module or external), nil for dynamic calls.
func staticCallee(pkg *Package, bindings map[types.Object]*types.Func, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if m, ok := sel.Obj().(*types.Func); ok && m.Pkg() != nil {
				return m
			}
			return nil
		}
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			return obj
		case *types.Var:
			if target, ok := bindings[obj]; ok {
				return target
			}
		}
	}
	return nil
}
