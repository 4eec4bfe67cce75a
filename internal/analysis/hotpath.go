package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotPath enforces the //apollo:hotpath contract: annotated functions
// and their transitive module-internal callees must not allocate,
// acquire mutexes, touch channels, or call time.Now / fmt.* / log.* /
// //apollo:blocking functions. Traversal resolves direct calls, method
// calls, locally bound method values, and interface dispatch onto
// module-local concrete implementations; it stops at functions
// annotated //apollo:coldpath (rare, amortized paths), and a single
// finding can be waived with a line-level //apollo:allocok reason.
var HotPath = &Analyzer{
	Name:   "hotpath",
	Doc:    "hot-path functions must be allocation-free and lock-free",
	run:    runHotPath,
	waives: []string{dirAllocOK, dirColdPath},
}

// runHotPath walks from every //apollo:hotpath root; an //apollo:allocok
// that suppresses a finding and an //apollo:coldpath that stops a
// traversal are recorded as live waivers.
func runHotPath(f *facts) []Diagnostic {
	h := &hotWalker{f: f, visited: map[*types.Func]bool{}}
	for _, fi := range f.funcs {
		if fi.hot {
			h.walk(fi, nil)
		}
	}
	return h.diags
}

type hotWalker struct {
	f       *facts
	visited map[*types.Func]bool
	diags   []Diagnostic
}

// walk checks one function reached from a hot root and recurses into its
// module-internal callees. Each function is checked once; the first
// chain that reaches it is the one reported.
func (h *hotWalker) walk(fi *funcInfo, chain []string) {
	if h.visited[fi.obj] {
		return
	}
	h.visited[fi.obj] = true
	chain = append(chain[:len(chain):len(chain)], displayName(fi.obj))
	if fi.decl.Body == nil {
		return
	}

	pkg := fi.pkg
	info := pkg.Info
	fset := h.f.prog.Fset
	parents := parentsOf(fi.decl.Body)
	bindings := methodBindings(pkg, fi.decl.Body)

	report := func(pos token.Pos, format string, args ...any) {
		h.diags = append(h.diags, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "hotpath",
			Message:  fmt.Sprintf(format, args...),
			Chain:    chain,
		})
	}
	allocOK := func(pos token.Pos) bool {
		return h.f.waived(fi.lines, pos, dirAllocOK)
	}

	var edges []hotEdge

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			h.checkCall(fi, n, parents, bindings, report, allocOK, &edges)
		case *ast.SendStmt:
			report(n.Pos(), "channel send on the hot path")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive on the hot path")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select statement on the hot path")
		case *ast.GoStmt:
			report(n.Pos(), "go statement on the hot path (allocates and schedules a goroutine)")
		case *ast.RangeStmt:
			if t := exprType(info, n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(n.Pos(), "range over channel on the hot path")
				}
			}
		case *ast.CompositeLit:
			h.checkCompositeLit(fi, n, parents, report, allocOK)
		case *ast.FuncLit:
			h.checkCapture(fi, n, report, allocOK)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					h.checkBox(fi, n.Rhs[i], exprType(info, n.Lhs[i]), report, allocOK)
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				target := exprType(info, n.Type)
				for _, v := range n.Values {
					h.checkBox(fi, v, target, report, allocOK)
				}
			}
		case *ast.ReturnStmt:
			h.checkReturn(fi, n, parents, report, allocOK)
		}
		return true
	})

	for _, e := range edges {
		next := chain
		if e.via != "" {
			next = append(chain[:len(chain):len(chain)], "["+e.via+"]")
		}
		h.walk(e.target, next)
	}
}

// checkCall handles one call site: builtin allocators, banned
// string/byte conversions, banned external calls, //apollo:blocking
// callees, and call-graph edges into the module.
func (h *hotWalker) checkCall(fi *funcInfo, call *ast.CallExpr, parents map[ast.Node]ast.Node,
	bindings map[types.Object]*types.Func,
	report func(token.Pos, string, ...any), allocOK func(token.Pos) bool,
	edges *[]hotEdge) {
	info := fi.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Type conversions: string <-> []byte/[]rune copy their operand.
	if tv, ok := info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		h.checkConversion(fi, call, tv.Type, parents, report, allocOK)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !allocOK(call.Pos()) {
					report(call.Pos(), "make allocates on the hot path")
				}
			case "new":
				if !allocOK(call.Pos()) {
					report(call.Pos(), "new allocates on the hot path")
				}
			case "append":
				if !allocOK(call.Pos()) {
					report(call.Pos(), "append may grow and allocate on the hot path")
				}
			case "close":
				report(call.Pos(), "channel close on the hot path")
			}
			return
		}
	}

	// Boxing of arguments into interface parameters.
	if sig, ok := typeAsSignature(info, fun); ok {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if call.Ellipsis != token.NoPos {
					continue
				}
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			}
			h.checkBox(fi, arg, pt, report, allocOK)
		}
	}

	callees, ext := h.f.g.resolve(fi.pkg, bindings, call)
	if ext != nil {
		if reason := bannedExternal(ext); reason != "" {
			report(call.Pos(), "%s", reason)
		}
		return
	}
	for _, c := range callees {
		if c.fn.blocking {
			via := ""
			if c.viaInterface != "" {
				via = " via " + c.viaInterface
			}
			report(call.Pos(), "calls //apollo:blocking function %s%s", displayName(c.fn.obj), via)
			continue
		}
		if c.fn.cold {
			h.f.uses.mark(c.fn.coldPos)
			continue
		}
		*edges = append(*edges, hotEdge{target: c.fn, via: c.viaInterface})
	}
}

// hotEdge is one traversal edge from a hot function into a module callee.
type hotEdge struct {
	target *funcInfo
	via    string
}

// checkConversion flags string <-> byte/rune-slice conversions, except a
// string(b) used directly as a map lookup key, which the compiler
// performs without copying.
func (h *hotWalker) checkConversion(fi *funcInfo, call *ast.CallExpr, dst types.Type,
	parents map[ast.Node]ast.Node, report func(token.Pos, string, ...any), allocOK func(token.Pos) bool) {
	info := fi.pkg.Info
	src := exprType(info, call.Args[0])
	if src == nil {
		return
	}
	switch {
	case isString(dst) && isByteOrRuneSlice(src):
		if mapIndexRead(info, call, parents) || allocOK(call.Pos()) {
			return
		}
		report(call.Pos(), "string(%s) conversion copies on the hot path", types.TypeString(src, shortQualifier))
	case isByteOrRuneSlice(dst) && isString(src):
		if allocOK(call.Pos()) {
			return
		}
		report(call.Pos(), "%s(string) conversion copies on the hot path", types.TypeString(dst, shortQualifier))
	}
}

// mapIndexRead reports whether the expression is the key of a map read
// (m[k] as an rvalue), where string([]byte) does not allocate.
func mapIndexRead(info *types.Info, key ast.Expr, parents map[ast.Node]ast.Node) bool {
	ie, ok := parents[key].(*ast.IndexExpr)
	if !ok || ie.Index != key {
		return false
	}
	t := exprType(info, ie.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return false
	}
	if assign, ok := parents[ie].(*ast.AssignStmt); ok {
		for _, lhs := range assign.Lhs {
			if lhs == ie {
				return false // m[string(b)] = v retains the key
			}
		}
	}
	return true
}

// checkCompositeLit flags heap-bound composite literals: every slice or
// map literal, and every &T{} literal (which escapes by construction on
// these paths).
func (h *hotWalker) checkCompositeLit(fi *funcInfo, lit *ast.CompositeLit,
	parents map[ast.Node]ast.Node, report func(token.Pos, string, ...any), allocOK func(token.Pos) bool) {
	t := exprType(fi.pkg.Info, lit)
	if t == nil || allocOK(lit.Pos()) {
		return
	}
	if u, ok := parents[lit].(*ast.UnaryExpr); ok && u.Op == token.AND {
		report(lit.Pos(), "&%s literal allocates on the hot path", types.TypeString(t, shortQualifier))
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		report(lit.Pos(), "slice literal allocates on the hot path")
	case *types.Map:
		report(lit.Pos(), "map literal allocates on the hot path")
	}
}

// checkCapture flags closures that capture variables from the enclosing
// function: a capturing closure value allocates.
func (h *hotWalker) checkCapture(fi *funcInfo, lit *ast.FuncLit,
	report func(token.Pos, string, ...any), allocOK func(token.Pos) bool) {
	if allocOK(lit.Pos()) {
		return
	}
	info := fi.pkg.Info
	captured := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil {
			return true
		}
		// A variable declared inside the enclosing function but outside
		// the literal is a capture.
		if v.Pos() >= fi.decl.Pos() && v.Pos() < fi.decl.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) && !captured[v.Name()] {
			captured[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	if len(names) > 0 {
		sort.Strings(names)
		report(lit.Pos(), "closure captures %v and allocates on the hot path", names)
	}
}

// checkBox flags implicit boxing: a concrete non-pointer-shaped value
// converted to an interface allocates.
func (h *hotWalker) checkBox(fi *funcInfo, expr ast.Expr, target types.Type,
	report func(token.Pos, string, ...any), allocOK func(token.Pos) bool) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	info := fi.pkg.Info
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	at := tv.Type
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if _, ok := at.Underlying().(*types.Interface); ok {
		return
	}
	if pointerShaped(at) || allocOK(expr.Pos()) {
		return
	}
	report(expr.Pos(), "%s boxed into %s allocates on the hot path",
		types.TypeString(at, shortQualifier), types.TypeString(target, shortQualifier))
}

// checkReturn flags boxing in return statements against the enclosing
// function (or closure) signature.
func (h *hotWalker) checkReturn(fi *funcInfo, ret *ast.ReturnStmt,
	parents map[ast.Node]ast.Node, report func(token.Pos, string, ...any), allocOK func(token.Pos) bool) {
	if len(ret.Results) == 0 {
		return
	}
	sig := fi.obj.Type().(*types.Signature)
	for n := parents[ast.Node(ret)]; n != nil; n = parents[n] {
		if lit, ok := n.(*ast.FuncLit); ok {
			if t := exprType(fi.pkg.Info, lit); t != nil {
				if s, ok := t.Underlying().(*types.Signature); ok {
					sig = s
				}
			}
			break
		}
	}
	if sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		h.checkBox(fi, r, sig.Results().At(i).Type(), report, allocOK)
	}
}

// bannedExternal classifies calls to out-of-module functions that are
// forbidden on hot paths, returning "" for permitted calls.
func bannedExternal(obj *types.Func) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	name := obj.Name()
	recv := receiverBaseName(obj)
	switch pkg.Path() {
	case "fmt":
		return "calls fmt." + name + " on the hot path"
	case "log", "log/slog":
		return "calls " + pkg.Path() + "." + name + " on the hot path"
	case "time":
		switch name {
		case "Now", "Since", "Until", "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			return "calls time." + name + " on the hot path"
		}
	case "sync":
		switch recv + "." + name {
		case "Mutex.Lock", "Mutex.Unlock", "Mutex.TryLock":
			return "acquires sync.Mutex (" + name + ") on the hot path"
		case "RWMutex.Lock", "RWMutex.Unlock", "RWMutex.RLock", "RWMutex.RUnlock",
			"RWMutex.TryLock", "RWMutex.TryRLock", "RWMutex.RLocker":
			return "acquires sync.RWMutex (" + name + ") on the hot path"
		case "WaitGroup.Wait", "Cond.Wait":
			return "blocks on sync." + recv + "." + name + " on the hot path"
		}
	case "os", "net", "net/http", "io/fs", "os/exec", "database/sql", "syscall":
		return "I/O call " + pkg.Path() + "." + name + " on the hot path"
	}
	return ""
}

// receiverBaseName returns the receiver's named-type name ("" for
// top-level functions).
func receiverBaseName(obj *types.Func) string {
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// Shared small type helpers.

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func typeAsSignature(info *types.Info, fun ast.Expr) (*types.Signature, bool) {
	t := exprType(info, fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}
