package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// LockScope flags blocking work performed while a sync.Mutex or
// sync.RWMutex is held: file/network I/O, channel operations, time.Sleep,
// and calls to //apollo:blocking functions — directly or through
// module-internal callees (a transitive may-block summary is computed
// per function). Lock regions are tracked lexically between x.Lock()
// (or x.RLock()) and the matching x.Unlock() in the same block; a
// deliberate design choice (e.g. persisting under a publish mutex) is
// waived with //apollo:lockok <reason> on the function or statement.
var LockScope = &Analyzer{
	Name:   "lockscope",
	Doc:    "no blocking work while a mutex is held",
	run:    runLockScope,
	waives: []string{dirLockOK},
}

// runLockScope scans every function. One waived with //apollo:lockok is
// scanned too, under its waiver: the findings are discarded, but
// producing any marks the waiver live; the same goes for statement- and
// line-level lockok.
func runLockScope(f *facts) []Diagnostic {
	s := &lockScanner{f: f, summaries: map[*types.Func]*blockFact{}, visiting: map[*types.Func]bool{}}
	for _, fi := range f.funcs {
		if fi.decl.Body == nil {
			continue
		}
		s.under = fi.lockOKPos
		s.scanFunc(fi)
	}
	return s.diags
}

// blockFact explains why a function may block: the root reason and the
// module call path that reaches it.
type blockFact struct {
	why  string
	path []string
}

type lockScanner struct {
	f         *facts
	summaries map[*types.Func]*blockFact
	visiting  map[*types.Func]bool
	// under, when valid, is the //apollo:lockok waiver the scan is running
	// under: a finding marks it live instead of being reported.
	under token.Pos
	diags []Diagnostic
}

// emit reports one diagnostic, or spends it on the waiver in force.
func (s *lockScanner) emit(d Diagnostic) {
	if s.under.IsValid() {
		s.f.uses.mark(s.under)
		return
	}
	s.diags = append(s.diags, d)
}

// scanFunc walks one function's statement blocks tracking held locks by
// their rendered receiver. A statement under a held lock is checked
// whole, nested blocks included, so the walk does not descend into it.
func (s *lockScanner) scanFunc(fi *funcInfo) {
	bindings := methodBindings(fi.pkg, fi.decl.Body)
	w := heldWalk[string]{
		pkg: fi.pkg,
		key: func(recv ast.Expr) (string, bool) { return types.ExprString(recv), true },
		under: func(stmt ast.Stmt, held map[string]bool) bool {
			// A statement-level waiver is live only if the statement
			// still produces a finding: check it under the waiver.
			prev := s.under
			if d, ok := lineDirectiveAt(fi.lines, s.f.prog.Fset, stmt.Pos(), dirLockOK); ok {
				s.under = d.pos
			}
			s.checkHeld(fi, stmt, held, bindings)
			s.under = prev
			return false
		},
	}
	w.stmts(fi.decl.Body.List, map[string]bool{})
}

// checkHeld inspects one statement executed under held locks, skipping
// nested function literals (they run later, not under this lock).
func (s *lockScanner) checkHeld(fi *funcInfo, stmt ast.Stmt, held map[string]bool,
	bindings map[types.Object]*types.Func) {
	fset := s.f.prog.Fset
	heldNames := make([]string, 0, len(held))
	for h := range held {
		heldNames = append(heldNames, h)
	}
	sort.Strings(heldNames)
	heldDesc := strings.Join(heldNames, ", ")

	report := func(pos token.Pos, msg string, chain []string) {
		if s.f.waived(fi.lines, pos, dirLockOK) {
			return
		}
		s.emit(Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "lockscope",
			Message:  fmt.Sprintf("%s while %s is held", msg, heldDesc),
			Chain:    chain,
		})
	}

	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			report(n.Pos(), "channel send", nil)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive", nil)
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select statement", nil)
		case *ast.CallExpr:
			callees, ext := s.f.g.resolve(fi.pkg, bindings, n)
			if ext != nil {
				if why := blockingExternal(ext); why != "" {
					report(n.Pos(), why, nil)
				}
				return true
			}
			for _, c := range callees {
				if c.fn.blocking {
					report(n.Pos(), "call to //apollo:blocking "+displayName(c.fn.obj), nil)
					continue
				}
				if fact := s.summary(c.fn); fact != nil {
					chain := append([]string{displayName(fi.obj)}, fact.path...)
					report(n.Pos(), fact.why+" (via "+displayName(c.fn.obj)+")", chain)
				}
			}
		}
		return true
	})
}

// summary reports whether a module function may block, transitively
// through its module-internal callees. Recursion cycles resolve to
// non-blocking; interface dispatch and dynamic function values are not
// followed.
func (s *lockScanner) summary(fi *funcInfo) *blockFact {
	if fact, ok := s.summaries[fi.obj]; ok {
		return fact
	}
	if s.visiting[fi.obj] {
		return nil
	}
	s.visiting[fi.obj] = true
	defer delete(s.visiting, fi.obj)

	var fact *blockFact
	if fi.blocking {
		fact = &blockFact{why: "call to //apollo:blocking " + displayName(fi.obj), path: []string{displayName(fi.obj)}}
	} else if fi.decl.Body != nil {
		bindings := methodBindings(fi.pkg, fi.decl.Body)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if fact != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt:
				fact = &blockFact{why: "channel send", path: []string{displayName(fi.obj)}}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					fact = &blockFact{why: "channel receive", path: []string{displayName(fi.obj)}}
				}
			case *ast.SelectStmt:
				fact = &blockFact{why: "select statement", path: []string{displayName(fi.obj)}}
			case *ast.CallExpr:
				callees, ext := s.f.g.resolve(fi.pkg, bindings, n)
				if ext != nil {
					if why := blockingExternal(ext); why != "" {
						fact = &blockFact{why: why, path: []string{displayName(fi.obj)}}
					}
					return true
				}
				for _, c := range callees {
					if c.viaInterface != "" {
						continue
					}
					if sub := s.summary(c.fn); sub != nil {
						fact = &blockFact{why: sub.why, path: append([]string{displayName(fi.obj)}, sub.path...)}
						return false
					}
				}
			}
			return true
		})
	}
	s.summaries[fi.obj] = fact
	return fact
}

// blockingExternal classifies out-of-module calls that block or perform
// I/O, returning "" for benign calls.
func blockingExternal(obj *types.Func) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	name := obj.Name()
	switch pkg.Path() {
	case "os", "net", "net/http", "io/fs", "os/exec", "database/sql", "syscall":
		return "file/network I/O " + pkg.Path() + "." + name
	case "io", "io/ioutil":
		switch name {
		case "ReadAll", "Copy", "CopyN", "CopyBuffer", "ReadFile", "WriteFile":
			return "I/O call " + pkg.Path() + "." + name
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Fscan") {
			return "stream write fmt." + name
		}
	case "log", "log/slog":
		return "log write " + pkg.Path() + "." + name
	case "sync":
		switch receiverBaseName(obj) + "." + name {
		case "WaitGroup.Wait", "Cond.Wait":
			return "blocks on sync." + receiverBaseName(obj) + "." + name
		}
	}
	return ""
}

// lockCallExpr matches a call of the form x.Lock() / x.RLock() /
// x.Unlock() / x.RUnlock() on a sync mutex, returning the receiver
// expression — which lockscope renders to a string and lockorder
// resolves to a lock identity (field or variable object) — and the
// operation.
func lockCallExpr(pkg *Package, e ast.Expr) (recv ast.Expr, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return nil, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	obj, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFunc || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, "", false
	}
	base := receiverBaseName(obj)
	if base != "Mutex" && base != "RWMutex" {
		return nil, "", false
	}
	switch obj.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.X, obj.Name(), true
	}
	return nil, "", false
}

// heldWalk is the one held-set walk lockscope and lockorder share: it
// runs a function body's statement lists in execution order, keeping the
// set of mutexes held between x.Lock()/x.RLock() and the matching unlock
// in the same list (a deferred unlock holds to the end of the lexical
// region). Control-flow blocks nested in a statement inherit a copy of
// the held set; function literals start empty — they run later, deferred
// or on their own goroutine. The analyzers differ in the lock's key
// (lockscope: the rendered receiver; lockorder: the field or variable
// object) and in what they do at an acquisition and at a statement under
// a held lock.
type heldWalk[K comparable] struct {
	pkg *Package
	// key is the identity of the mutex a lock call's receiver names;
	// false leaves the call out of the held set.
	key func(recv ast.Expr) (K, bool)
	// acquire, when set, sees each Lock/RLock statement and the set held
	// before it.
	acquire func(stmt ast.Stmt, k K, held map[K]bool)
	// under sees each other statement executed while a lock is held and
	// reports whether the walk should still descend into it.
	under func(stmt ast.Stmt, held map[K]bool) bool
}

func (w *heldWalk[K]) stmts(list []ast.Stmt, held map[K]bool) {
	for _, stmt := range list {
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if recv, op, ok := lockCallExpr(w.pkg, es.X); ok {
				k, tracked := w.key(recv)
				switch {
				case !tracked:
				case op == "Unlock" || op == "RUnlock":
					delete(held, k)
				default:
					if w.acquire != nil {
						w.acquire(stmt, k, held)
					}
					held[k] = true
				}
				continue
			}
		}
		if d, ok := stmt.(*ast.DeferStmt); ok {
			if _, op, ok := lockCallExpr(w.pkg, d.Call); ok && (op == "Unlock" || op == "RUnlock") {
				continue
			}
		}
		if len(held) > 0 && !w.under(stmt, held) {
			continue
		}
		for _, body := range flowBlocks(stmt) {
			w.stmts(body, maps.Clone(held))
		}
		for _, lit := range topFuncLits(stmt) {
			w.stmts(lit.Body.List, map[K]bool{})
		}
	}
}

// flowBlocks returns the same-goroutine statement blocks nested directly
// inside a statement (if/for/range/switch/select bodies and bare
// blocks). Function literals are deliberately excluded — they execute
// later, with their own lock context.
func flowBlocks(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch st := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, st.List)
	case *ast.IfStmt:
		out = append(out, st.Body.List)
		if st.Else != nil {
			out = append(out, flowBlocks(st.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, st.Body.List)
	case *ast.RangeStmt:
		out = append(out, st.Body.List)
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, flowBlocks(st.Stmt)...)
	}
	return out
}

// topFuncLits collects the function literals syntactically inside a
// statement but outside its nested flow blocks (those are collected when
// the blocks themselves are scanned).
func topFuncLits(stmt ast.Stmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			return false
		case *ast.FuncLit:
			out = append(out, n)
			return false
		}
		return true
	})
	return out
}
