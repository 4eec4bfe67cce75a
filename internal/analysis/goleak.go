package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// GoLeak flags `go` statements whose goroutine can block forever — the
// leaks that accumulate invisibly in a long-running serving daemon:
//
//   - a condition-less `for` loop with no reachable return, matching
//     break, or terminating call (no stop channel / context case);
//   - an empty `select {}`;
//   - a bare send on an unbuffered locally made channel whose spawner
//     either never receives or only receives behind a multi-way select
//     (the classic timeout-abandonment leak);
//   - a bare receive on a locally made channel the spawner never sends
//     to or closes;
//   - sync.WaitGroup misuse inside the goroutine: Add after spawn
//     (races with Wait) and a non-deferred Done in a body with early
//     returns.
//
// Goroutine bodies are the spawned function literal or, for `go f(...)`
// on a statically resolved module function, that function's body
// (checked once per function). `for range ch` loops are accepted — close
// of the channel terminates them. A finding is waived with
// //apollo:goleakok <reason> on the construct's line or the go
// statement's line.
var GoLeak = &Analyzer{
	Name:   "goleak",
	Doc:    "spawned goroutines must have a guaranteed exit and unblockable channel use",
	run:    runGoLeak,
	waives: []string{dirGoLeakOK},
}

func runGoLeak(f *facts) []Diagnostic {
	s := &goLeakScanner{f: f, checkedNamed: map[*types.Func]bool{}}
	for _, fi := range f.funcs {
		if fi.decl.Body != nil {
			s.scanSpawner(fi)
		}
	}
	return s.diags
}

type goLeakScanner struct {
	f            *facts
	checkedNamed map[*types.Func]bool
	diags        []Diagnostic
}

// goBodyCtx carries the context a goroutine body is checked in: the
// package/file the body lives in (for types and waiver lines) and the
// spawning go statement (whose line also accepts the waiver).
type goBodyCtx struct {
	pkg     *Package
	lines   map[int][]directive // body file's directives
	goPos   token.Pos
	goLines map[int][]directive // spawner file's directives
	chain   []string
}

func (s *goLeakScanner) scanSpawner(fi *funcInfo) {
	bindings := methodBindings(fi.pkg, fi.decl.Body)
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(gs.Call.Fun).(type) {
		case *ast.FuncLit:
			facts := spawnChanFacts(fi.pkg, fi.decl.Body, fun)
			s.checkBody(goBodyCtx{
				pkg: fi.pkg, lines: fi.lines, goPos: gs.Pos(), goLines: fi.lines,
				chain: []string{displayName(fi.obj)},
			}, fun.Body, facts)
		default:
			callees, _ := s.f.g.resolve(fi.pkg, bindings, gs.Call)
			for _, c := range callees {
				if c.viaInterface != "" || c.fn.decl.Body == nil || s.checkedNamed[c.fn.obj] {
					continue
				}
				s.checkedNamed[c.fn.obj] = true
				s.checkBody(goBodyCtx{
					pkg: c.fn.pkg, lines: c.fn.lines, goPos: gs.Pos(), goLines: fi.lines,
					chain: []string{displayName(fi.obj), displayName(c.fn.obj)},
				}, c.fn.decl.Body, nil)
			}
		}
		return true
	})
}

// checkBody runs every goleak rule over one goroutine body. facts is
// the spawner-side channel analysis, nil for named callees (whose
// channels arrive through parameters and fields and stay unresolved).
func (s *goLeakScanner) checkBody(ctx goBodyCtx, body *ast.BlockStmt, facts *chanFacts) {
	fset := s.f.prog.Fset
	report := func(pos token.Pos, format string, args ...any) {
		if s.f.waived(ctx.lines, pos, dirGoLeakOK) || s.f.waived(ctx.goLines, ctx.goPos, dirGoLeakOK) {
			return
		}
		s.diags = append(s.diags, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "goleak",
			Message:  fmt.Sprintf(format, args...),
			Chain:    ctx.chain,
		})
	}
	parents := parentsOf(body)

	var plainDones []*ast.CallExpr
	deferredDone := false
	hasReturn := false

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			hasReturn = true
		case *ast.ForStmt:
			if n.Cond == nil && !loopExits(ctx.pkg, n, loopLabel(parents, n)) {
				report(n.Pos(), "goroutine loops forever: no return, break, or terminating call leaves this loop (missing stop channel or context case)")
			}
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 {
				report(n.Pos(), "empty select blocks this goroutine forever")
			}
		case *ast.SendStmt:
			if insideSelect(parents, n, body) || facts == nil {
				return true
			}
			v := chanVar(ctx.pkg, n.Chan)
			if v == nil {
				return true
			}
			capacity, known := facts.caps[v]
			if !known || capacity > 0 || facts.escapes[v] || facts.bareRecv[v] {
				return true
			}
			report(n.Pos(), "send on unbuffered channel %s can leak this goroutine: the spawner %s; buffer the channel or select on a stop signal",
				v.Name(), recvSituation(facts, v))
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || insideSelect(parents, n, body) || facts == nil {
				return true
			}
			v := chanVar(ctx.pkg, n.X)
			if v == nil {
				return true
			}
			if _, known := facts.caps[v]; !known {
				return true
			}
			if facts.escapes[v] || facts.sendsOrClose[v] {
				return true
			}
			report(n.Pos(), "receive on channel %s that the spawner never sends to or closes: this goroutine blocks forever", v.Name())
		case *ast.CallExpr:
			obj := waitGroupMethod(ctx.pkg, n)
			if obj == nil {
				return true
			}
			switch obj.Name() {
			case "Add":
				report(n.Pos(), "sync.WaitGroup.Add inside the spawned goroutine races with Wait; call Add before the go statement")
			case "Done":
				if _, ok := parents[n].(*ast.DeferStmt); ok {
					deferredDone = true
				} else {
					plainDones = append(plainDones, n)
				}
			}
		}
		return true
	})

	if !deferredDone && len(plainDones) > 0 && hasReturn {
		report(plainDones[0].Pos(), "sync.WaitGroup.Done is not deferred but the goroutine has return statements: an early return skips Done and Wait blocks forever")
	}
}

// recvSituation describes why the spawner may abandon the channel.
func recvSituation(facts *chanFacts, v *types.Var) string {
	if facts.selRecv[v] {
		return "only receives behind a select that can take another case"
	}
	return "never receives from it"
}

// loopLabel returns the label attached to a loop statement, "" if none.
func loopLabel(parents map[ast.Node]ast.Node, loop ast.Stmt) string {
	if l, ok := parents[loop].(*ast.LabeledStmt); ok {
		return l.Label.Name
	}
	return ""
}

// insideSelect reports whether n sits inside a select statement (its
// comm clauses don't block the goroutine unconditionally), looking no
// further up than the goroutine body itself.
func insideSelect(parents map[ast.Node]ast.Node, n ast.Node, stop ast.Node) bool {
	for p := parents[n]; p != nil && p != stop; p = parents[p] {
		if _, ok := p.(*ast.SelectStmt); ok {
			return true
		}
	}
	return false
}

// chanVar resolves a channel expression to its variable object, nil for
// fields, map elements, and calls.
func chanVar(pkg *Package, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pkg.Info.Uses[id].(*types.Var)
	return v
}

// loopExits reports whether any construct inside the condition-less loop
// can leave it: a return, a break targeting this loop, a goto, or a
// terminating call (panic, os.Exit, runtime.Goexit, log.Fatal/Panic).
// Function literals are skipped — code inside them does not unwind this
// loop.
func loopExits(pkg *Package, loop *ast.ForStmt, label string) bool {
	exits := false
	var scanStmt func(stmt ast.Stmt, depth int)
	scanList := func(list []ast.Stmt, depth int) {
		for _, st := range list {
			scanStmt(st, depth)
		}
	}
	scanStmt = func(stmt ast.Stmt, depth int) {
		if exits || stmt == nil {
			return
		}
		switch st := stmt.(type) {
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			switch st.Tok {
			case token.BREAK:
				if st.Label != nil {
					if label != "" && st.Label.Name == label {
						exits = true
					}
				} else if depth == 0 {
					exits = true
				}
			case token.GOTO:
				exits = true // conservatively assume the target leaves the loop
			}
		case *ast.ExprStmt:
			if isTerminalCall(pkg, st.X) {
				exits = true
			}
		case *ast.BlockStmt:
			scanList(st.List, depth)
		case *ast.IfStmt:
			scanList(st.Body.List, depth)
			scanStmt(st.Else, depth)
		case *ast.ForStmt:
			scanList(st.Body.List, depth+1)
		case *ast.RangeStmt:
			scanList(st.Body.List, depth+1)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanList(cc.Body, depth+1)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanList(cc.Body, depth+1)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanList(cc.Body, depth+1)
				}
			}
		case *ast.LabeledStmt:
			scanStmt(st.Stmt, depth)
		}
	}
	scanList(loop.Body.List, 0)
	return exits
}

// isTerminalCall reports whether the expression is a call that never
// returns.
func isTerminalCall(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pkg.Info.Uses[fun].(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	case *ast.SelectorExpr:
		obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return false
		}
		name := obj.Name()
		switch obj.Pkg().Path() {
		case "os":
			return name == "Exit"
		case "runtime":
			return name == "Goexit"
		case "log":
			return name == "Fatal" || name == "Fatalf" || name == "Fatalln" ||
				name == "Panic" || name == "Panicf" || name == "Panicln"
		}
	}
	return false
}

// waitGroupMethod returns the sync.WaitGroup method a call targets, nil
// otherwise.
func waitGroupMethod(pkg *Package, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" || receiverBaseName(obj) != "WaitGroup" {
		return nil
	}
	return obj
}

// chanFacts is the spawner-side analysis of locally made channels: their
// make capacities and how the spawning function (outside the goroutine
// under test) uses them.
type chanFacts struct {
	caps         map[*types.Var]int64
	escapes      map[*types.Var]bool
	bareRecv     map[*types.Var]bool // unconditional receive or range
	selRecv      map[*types.Var]bool // receive inside a select
	sendsOrClose map[*types.Var]bool
}

// spawnChanFacts analyzes the spawning function's body, excluding the
// goroutine literal under test (lit), classifying every use of each
// locally made channel variable.
func spawnChanFacts(pkg *Package, body *ast.BlockStmt, lit *ast.FuncLit) *chanFacts {
	f := &chanFacts{
		caps:         map[*types.Var]int64{},
		escapes:      map[*types.Var]bool{},
		bareRecv:     map[*types.Var]bool{},
		selRecv:      map[*types.Var]bool{},
		sendsOrClose: map[*types.Var]bool{},
	}
	parents := parentsOf(body)

	// First pass: resolve make(chan ...) capacities bound to variables.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var v *types.Var
				if n.Tok == token.DEFINE {
					v, _ = pkg.Info.Defs[id].(*types.Var)
				} else {
					v, _ = pkg.Info.Uses[id].(*types.Var)
				}
				if v == nil {
					continue
				}
				if capacity, ok := makeChanCap(pkg, n.Rhs[i]); ok {
					f.caps[v] = capacity
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i >= len(n.Values) {
					break
				}
				v, ok := pkg.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				if capacity, ok := makeChanCap(pkg, n.Values[i]); ok {
					f.caps[v] = capacity
				}
			}
		}
		return true
	})

	// Second pass: classify every use outside the goroutine literal.
	ast.Inspect(body, func(n ast.Node) bool {
		if n == lit {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if _, tracked := f.caps[v]; !tracked {
			return true
		}
		switch p := parents[id].(type) {
		case *ast.SendStmt:
			if p.Chan == ast.Expr(id) {
				f.sendsOrClose[v] = true
				return true
			}
			f.escapes[v] = true // the channel itself sent over a channel
		case *ast.UnaryExpr:
			if p.Op == token.ARROW {
				if insideSelect(parents, p, body) {
					f.selRecv[v] = true
				} else {
					f.bareRecv[v] = true
				}
				return true
			}
			f.escapes[v] = true
		case *ast.RangeStmt:
			if p.X == ast.Expr(id) {
				f.bareRecv[v] = true
				return true
			}
		case *ast.CallExpr:
			// close/cap/len keep the channel local; anything else is an
			// escape (the callee may send, receive, or retain it).
			if fn, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[fn].(*types.Builtin); ok {
					switch b.Name() {
					case "close":
						f.sendsOrClose[v] = true
						return true
					case "cap", "len":
						return true
					}
				}
			}
			f.escapes[v] = true
		case *ast.AssignStmt:
			// The defining make assignment binds the var on the left; the
			// channel appearing on the right aliases it away.
			for _, rhs := range p.Rhs {
				if rhs == ast.Expr(id) {
					f.escapes[v] = true
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.IndexExpr:
			f.escapes[v] = true
		}
		return true
	})
	return f
}

// makeChanCap matches a make(chan T[, n]) expression, returning the
// constant capacity (0 for the two-argument-less form). Non-constant
// capacities report !ok — the channel stays unresolved.
func makeChanCap(pkg *Package, e ast.Expr) (int64, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return 0, false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return 0, false
	}
	if len(call.Args) == 0 {
		return 0, false
	}
	t := exprType(pkg.Info, call)
	if t == nil {
		return 0, false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return 0, false
	}
	if len(call.Args) == 1 {
		return 0, true
	}
	tv, ok := pkg.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return 0, false
	}
	n, err := strconv.ParseInt(tv.Value.ExactString(), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
