package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// LockOrder enforces a declared global lock ordering. A mutex's identity
// is the field or variable object it is declared as (rendered as the
// package-qualified path, e.g. "apollo/internal/server.Server.spoolMu");
// the declaration may carry //apollo:lockrank N. The analyzer builds the
// global acquisition graph — every place lock B is taken while lock A is
// held, lexically or through module-internal calls resolved by the call
// graph — and reports:
//
//   - acquiring a lock that is already held (self-deadlock);
//   - a nested acquisition where both locks are ranked but the inner
//     rank does not strictly increase;
//   - a nested acquisition involving an unranked mutex (the order must
//     be declared, not incidental);
//   - any cycle in the acquisition graph.
//
// Interface dispatch is not followed when summarizing callee
// acquisitions (a dynamic callee would add speculative edges);
// anonymous embedded mutexes are skipped because they have no
// field identity of their own.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "nested mutex acquisitions must follow declared //apollo:lockrank order and be acyclic",
	run:  runLockOrder,
}

func runLockOrder(f *facts) []Diagnostic {
	s := &lockOrderScanner{
		g:        f.g,
		acq:      map[*types.Func]map[*types.Var][]string{},
		visiting: map[*types.Func]bool{},
		edgeSeen: map[[2]*types.Var]bool{},
	}
	s.ranks, s.names = collectLockRanks(f.prog, &s.diags)

	for _, fi := range f.funcs {
		if fi.decl.Body == nil {
			continue
		}
		s.bindings = methodBindings(fi.pkg, fi.decl.Body)
		s.scanFunc(fi)
	}

	s.checkEdges()
	return s.diags
}

// collectLockRanks scans every mutex-typed struct field and package
// variable declaration for //apollo:lockrank directives, returning the
// declared ranks and a display name for every declared mutex. Malformed
// directives are reported into diags.
func collectLockRanks(prog *Program, diags *[]Diagnostic) (map[*types.Var]int, map[*types.Var]string) {
	ranks := map[*types.Var]int{}
	names := map[*types.Var]string{}
	report := func(pos token.Pos, format string, args ...any) {
		*diags = append(*diags, Diagnostic{
			Pos:      prog.Fset.Position(pos),
			Analyzer: "lockorder",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	declare := func(pkg *Package, idents []*ast.Ident, owner string, dirs []directive) {
		var rank int
		var rankPos token.Pos
		hasRank := false
		for _, d := range dirs {
			if d.name != dirLockRank {
				continue
			}
			// Only the first field is the rank; anything after it is a
			// free-form reason, matching the other directives.
			fields := strings.Fields(d.args)
			if len(fields) == 0 {
				report(d.pos, "malformed //apollo:lockrank %q: argument must be an integer", d.args)
				continue
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil {
				report(d.pos, "malformed //apollo:lockrank %q: argument must be an integer", fields[0])
				continue
			}
			rank, rankPos, hasRank = n, d.pos, true
		}
		for _, id := range idents {
			v, ok := pkg.Info.Defs[id].(*types.Var)
			if !ok {
				continue
			}
			if !isMutexType(v.Type()) {
				if hasRank {
					report(rankPos, "//apollo:lockrank on %s, which is not a sync.Mutex or sync.RWMutex", id.Name)
				}
				continue
			}
			name := pkg.Types.Path() + "." + id.Name
			if owner != "" {
				name = pkg.Types.Path() + "." + owner + "." + id.Name
			}
			names[v] = name
			if hasRank {
				ranks[v] = rank
			}
		}
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, f := range st.Fields.List {
							declare(pkg, f.Names, sp.Name.Name, parseDirectives(f.Doc, f.Comment))
						}
					case *ast.ValueSpec:
						if gd.Tok != token.VAR {
							continue
						}
						declare(pkg, sp.Names, "", parseDirectives(gd.Doc, sp.Doc, sp.Comment))
					}
				}
			}
		}
	}
	return ranks, names
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// resolveLockIdent maps a lock receiver expression to the field or
// variable object that identifies the lock class, nil when the identity
// is dynamic (map element, anonymous embed, interface).
func resolveLockIdent(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok {
			if sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					return v
				}
			}
			return nil
		}
		// Package-qualified variable (pkg.Mu).
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return resolveLockIdent(pkg, e.X)
		}
	}
	return nil
}

// lockEdge records one observed nested acquisition: to was acquired
// while from was held.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
	chain    []string // module call path when the acquisition is via a call
}

type lockOrderScanner struct {
	g        *graph
	ranks    map[*types.Var]int
	names    map[*types.Var]string
	acq      map[*types.Func]map[*types.Var][]string
	visiting map[*types.Func]bool
	bindings map[types.Object]*types.Func

	edges    []lockEdge
	edgeSeen map[[2]*types.Var]bool
	diags    []Diagnostic
}

// lockName renders a lock identity for diagnostics.
func (s *lockOrderScanner) lockName(v *types.Var) string {
	if n, ok := s.names[v]; ok {
		return n
	}
	if v.Pkg() != nil {
		return v.Pkg().Path() + "." + v.Name()
	}
	return v.Name()
}

func (s *lockOrderScanner) report(pos token.Pos, chain []string, format string, args ...any) {
	s.diags = append(s.diags, Diagnostic{
		Pos:      s.g.prog.Fset.Position(pos),
		Analyzer: "lockorder",
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

func (s *lockOrderScanner) addEdge(from, to *types.Var, pos token.Pos, chain []string) {
	key := [2]*types.Var{from, to}
	if s.edgeSeen[key] {
		return
	}
	s.edgeSeen[key] = true
	s.edges = append(s.edges, lockEdge{from: from, to: to, pos: pos, chain: chain})
}

// scanFunc walks one function's statement blocks tracking held lock
// identities: an acquisition adds an edge from every lock already held,
// and a statement under a held lock is checked for module calls that
// acquire more.
func (s *lockOrderScanner) scanFunc(fi *funcInfo) {
	w := heldWalk[*types.Var]{
		pkg: fi.pkg,
		key: func(recv ast.Expr) (*types.Var, bool) {
			v := resolveLockIdent(fi.pkg, recv)
			return v, v != nil
		},
		acquire: func(stmt ast.Stmt, v *types.Var, held map[*types.Var]bool) {
			if held[v] {
				s.report(stmt.Pos(), nil, "acquires %s while it is already held (self-deadlock)", s.lockName(v))
				return
			}
			for a := range held {
				s.addEdge(a, v, stmt.Pos(), nil)
			}
		},
		under: func(stmt ast.Stmt, held map[*types.Var]bool) bool {
			s.checkCallsUnder(fi, stmt, held)
			return true
		},
	}
	w.stmts(fi.decl.Body.List, map[*types.Var]bool{})
}

// checkCallsUnder inspects one statement's own expressions (not its
// nested blocks or function literals) for module calls that acquire
// locks, adding edges from every held lock.
func (s *lockOrderScanner) checkCallsUnder(fi *funcInfo, stmt ast.Stmt, held map[*types.Var]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, _, ok := lockCallExpr(fi.pkg, n); ok {
				return true // handled at statement level
			}
			callees, _ := s.g.resolve(fi.pkg, s.bindings, n)
			for _, c := range callees {
				if c.viaInterface != "" {
					continue
				}
				for v, path := range s.acquires(c.fn) {
					chain := append([]string{displayName(fi.obj)}, path...)
					if held[v] {
						s.report(n.Pos(), chain, "call acquires %s while it is already held (self-deadlock)", s.lockName(v))
						continue
					}
					for a := range held {
						s.addEdge(a, v, n.Pos(), chain)
					}
				}
			}
		}
		return true
	})
}

// acquires summarizes which lock identities a function may acquire,
// transitively through statically resolved module callees. The value is
// the module call path from fi to the acquisition, for diagnostics.
func (s *lockOrderScanner) acquires(fi *funcInfo) map[*types.Var][]string {
	if m, ok := s.acq[fi.obj]; ok {
		return m
	}
	if s.visiting[fi.obj] {
		return nil
	}
	s.visiting[fi.obj] = true
	defer delete(s.visiting, fi.obj)

	out := map[*types.Var][]string{}
	if fi.decl.Body != nil {
		bindings := methodBindings(fi.pkg, fi.decl.Body)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if expr, op, ok := lockCallExpr(fi.pkg, n); ok {
					if op == "Lock" || op == "RLock" {
						if v := resolveLockIdent(fi.pkg, expr); v != nil {
							if _, seen := out[v]; !seen {
								out[v] = []string{displayName(fi.obj)}
							}
						}
					}
					return true
				}
				callees, _ := s.g.resolve(fi.pkg, bindings, n)
				for _, c := range callees {
					if c.viaInterface != "" {
						continue
					}
					for v, path := range s.acquires(c.fn) {
						if _, seen := out[v]; !seen {
							out[v] = append([]string{displayName(fi.obj)}, path...)
						}
					}
				}
			}
			return true
		})
	}
	s.acq[fi.obj] = out
	return out
}

// checkEdges validates the collected acquisition graph: cycles first
// (rank checks on a cyclic edge would be redundant noise), then rank
// monotonicity, then undeclared nestings.
func (s *lockOrderScanner) checkEdges() {
	adj := map[*types.Var][]*types.Var{}
	for _, e := range s.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, e := range s.edges {
		if path := s.findPath(adj, e.to, e.from); path != nil {
			cycle := make([]string, 0, len(path)+1)
			cycle = append(cycle, s.lockName(e.from))
			for _, v := range path {
				cycle = append(cycle, s.lockName(v))
			}
			s.report(e.pos, e.chain, "lock-order cycle: %s", strings.Join(cycle, " -> "))
			continue
		}
		rf, okf := s.ranks[e.from]
		rt, okt := s.ranks[e.to]
		switch {
		case okf && okt:
			if rt <= rf {
				s.report(e.pos, e.chain,
					"acquires %s (lockrank %d) while holding %s (lockrank %d): nested acquisitions must strictly increase the rank",
					s.lockName(e.to), rt, s.lockName(e.from), rf)
			}
		default:
			s.report(e.pos, e.chain,
				"nested lock acquisition without a declared order: holding %s while acquiring %s; annotate both mutexes with //apollo:lockrank",
				s.lockName(e.from), s.lockName(e.to))
		}
	}
}

// findPath returns the lock sequence from -> ... -> to along acquisition
// edges (inclusive of both ends), nil if unreachable.
func (s *lockOrderScanner) findPath(adj map[*types.Var][]*types.Var, from, to *types.Var) []*types.Var {
	seen := map[*types.Var]bool{}
	var dfs func(v *types.Var) []*types.Var
	dfs = func(v *types.Var) []*types.Var {
		if v == to {
			return []*types.Var{v}
		}
		if seen[v] {
			return nil
		}
		seen[v] = true
		for _, next := range adj[v] {
			if p := dfs(next); p != nil {
				return append([]*types.Var{v}, p...)
			}
		}
		return nil
	}
	return dfs(from)
}
