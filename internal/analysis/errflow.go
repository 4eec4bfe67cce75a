package analysis

// errflow.go is the failure-path fact layer shared by the errsink and
// ctxflow analyzers: error-value def-use summaries over the module call
// graph (which error parameters a function actually observes),
// module-wide channel-buffering facts, stop-signal shape classification,
// and the allowlist of calls whose error results are infallible by
// contract.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// errorType is the universe error interface, the type every tracked
// error value must be identical to.
var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the built-in error type.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// callResults returns the result types of a call expression (empty for
// void calls, conversions, and untypeable expressions).
func callResults(info *types.Info, call *ast.CallExpr) []types.Type {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		out := make([]types.Type, tuple.Len())
		for i := 0; i < tuple.Len(); i++ {
			out[i] = tuple.At(i).Type()
		}
		return out
	}
	return []types.Type{tv.Type}
}

// infallibleExternal reports whether an out-of-module function's error
// result may be dropped without a diagnostic: calls that cannot fail by
// documented contract (fmt print family, strings.Builder, bytes.Buffer,
// hash.Hash writes) or whose failure already has a mandated side effect
// (flag.FlagSet.Parse under ExitOnError terminates the process).
func infallibleExternal(obj *types.Func) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "fmt":
		n := obj.Name()
		return strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint")
	case "strings":
		return receiverBaseName(obj) == "Builder"
	case "bytes":
		return receiverBaseName(obj) == "Buffer"
	case "hash":
		// hash.Hash's Write is documented to never return an error.
		return true
	case "flag":
		return obj.Name() == "Parse"
	}
	return false
}

// infallibleReceiver reports whether a method call's receiver static
// type makes the error result infallible by contract: the hash package's
// Hash interfaces document that Write never returns an error, but the
// method object itself resolves to io.Writer.Write (hash.Hash embeds
// io.Writer), so the receiver type — not the method's package — is the
// evidence.
func infallibleReceiver(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := exprType(pkg.Info, sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "hash", "hash/fnv", "hash/crc32", "hash/crc64", "hash/adler32", "hash/maphash":
		return true
	case "strings":
		return named.Obj().Name() == "Builder"
	case "bytes":
		return named.Obj().Name() == "Buffer"
	}
	return false
}

// paramObjs returns the receiver (if any) followed by the declared
// parameters: the slot layout errReads' masks and callArgVars share.
func paramObjs(fi *funcInfo) []*types.Var {
	var out []*types.Var
	sig := fi.obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		out = append(out, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// callArgVars maps a call's receiver and arguments onto the variables
// they pass, aligned with paramObjs' layout (receiver first for method
// calls). Non-variable arguments yield nil entries.
func callArgVars(pkg *Package, call *ast.CallExpr) []*types.Var {
	var out []*types.Var
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, argVar(pkg, sel.X))
		}
	}
	for _, a := range call.Args {
		out = append(out, argVar(pkg, a))
	}
	return out
}

// argVar resolves an argument to the variable it passes (unwrapping an
// address-of), nil when it is not a plain variable.
func argVar(pkg *Package, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return argVar(pkg, x.X)
		}
	}
	return nil
}

// errReads computes, per module function, which receiver/parameter slots
// (paramObjs layout) the body actually observes. A false entry for an
// error-typed parameter means every path through the function provably
// ignores the value — so passing an error there is not a sink. Reads
// propagate through static module calls: an error forwarded to a
// function that reads it counts as read. Recursion, bodyless functions,
// interface dispatch, and anything else unprovable resolve to "read"
// (conservative: no diagnostic).
type errReads struct {
	g        *graph
	memo     map[*types.Func][]bool
	visiting map[*types.Func]bool
}

func newErrReads(g *graph) *errReads {
	return &errReads{g: g, memo: map[*types.Func][]bool{}, visiting: map[*types.Func]bool{}}
}

// reads returns the observed mask for fi's receiver+parameters.
// Non-error parameters are always reported as read; only error slots
// carry a verdict.
func (er *errReads) reads(fi *funcInfo) []bool {
	if m, ok := er.memo[fi.obj]; ok {
		return m
	}
	params := paramObjs(fi)
	all := make([]bool, len(params))
	for i := range all {
		all[i] = true
	}
	if fi.decl.Body == nil {
		er.memo[fi.obj] = all
		return all
	}
	if er.visiting[fi.obj] {
		return all // recursion resolves to "reads"; the outer pass completes
	}
	er.visiting[fi.obj] = true
	defer delete(er.visiting, fi.obj)

	mask := make([]bool, len(params))
	idx := map[*types.Var]int{}
	for i, p := range params {
		if p == nil || !isErrorType(p.Type()) {
			mask[i] = true
			continue
		}
		idx[p] = i
	}
	if len(idx) > 0 {
		parents := parentsOf(fi.decl.Body)
		bindings := methodBindings(fi.pkg, fi.decl.Body)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := fi.pkg.Info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			i, tracked := idx[v]
			if !tracked || mask[i] {
				return true
			}
			if er.identObserves(fi, parents, bindings, id) {
				mask[i] = true
			}
			return true
		})
	}
	er.memo[fi.obj] = mask
	return mask
}

// identObserves classifies one use of a tracked error parameter: an
// overwrite is not an observation, and forwarding it as a plain argument
// to module callees that all ignore the slot is not one either.
// Everything else (comparisons, returns, method calls on it, dynamic
// forwarding) observes the value.
func (er *errReads) identObserves(fi *funcInfo, parents map[ast.Node]ast.Node,
	bindings map[types.Object]*types.Func, id *ast.Ident) bool {
	switch p := parents[id].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == ast.Expr(id) {
				return false // pure rebind of the parameter variable
			}
		}
	case *ast.CallExpr:
		if p.Fun == ast.Expr(id) {
			return true // calling through it (not an error anyway)
		}
		callees, ext := er.g.resolve(fi.pkg, bindings, p)
		if ext != nil || len(callees) == 0 {
			return true
		}
		argIdx := -1
		for i, v := range callArgVars(fi.pkg, p) {
			if v != nil && v == fi.pkg.Info.Uses[id] {
				argIdx = i
				break
			}
		}
		if argIdx < 0 {
			return true
		}
		for _, c := range callees {
			if c.viaInterface != "" {
				return true
			}
			sub := er.reads(c.fn)
			if argIdx >= len(sub) || sub[argIdx] {
				return true
			}
		}
		return false // every static callee provably ignores the slot
	}
	return true
}

// chanBuffering is the module-wide classification of channel variables
// by construction site: a variable is known-unbuffered when every
// make(chan) bound to it has no capacity argument (or a constant zero),
// and known-buffered when every one has a capacity argument. Channels
// from parameters, fields, or conflicting assignments stay unknown, and
// unknown channels are never flagged.
type chanBuffering struct {
	buffered map[*types.Var]bool // verdict for known vars
	known    map[*types.Var]bool
}

func buildChanBuffering(prog *Program) *chanBuffering {
	cb := &chanBuffering{buffered: map[*types.Var]bool{}, known: map[*types.Var]bool{}}
	record := func(pkg *Package, id *ast.Ident, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fun.Name != "make" || len(call.Args) == 0 {
			return
		}
		if _, isChan := exprChanType(pkg.Info, rhs); !isChan {
			return
		}
		var v *types.Var
		if d, ok := pkg.Info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := pkg.Info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v == nil {
			return
		}
		buffered := len(call.Args) >= 2
		if buffered {
			if tv := pkg.Info.Types[call.Args[1]]; tv.Value != nil && tv.Value.ExactString() == "0" {
				buffered = false // make(chan T, 0), spelled out
			}
		}
		if cb.known[v] && cb.buffered[v] != buffered {
			delete(cb.known, v) // conflicting construction sites: unknown
			return
		}
		cb.known[v] = true
		cb.buffered[v] = buffered
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							record(pkg, id, n.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) != len(n.Values) {
						return true
					}
					for i, id := range n.Names {
						record(pkg, id, n.Values[i])
					}
				}
				return true
			})
		}
	}
	return cb
}

// knownUnbuffered reports that v was provably constructed without a
// buffer everywhere it is made.
func (cb *chanBuffering) knownUnbuffered(v *types.Var) bool {
	return v != nil && cb.known[v] && !cb.buffered[v]
}

// exprChanType returns the channel type of an expression, if it is one.
func exprChanType(info *types.Info, e ast.Expr) (*types.Chan, bool) {
	t := exprType(info, e)
	if t == nil {
		return nil, false
	}
	ch, ok := t.Underlying().(*types.Chan)
	return ch, ok
}

// stopWords are the name fragments that mark a channel (or context
// accessor) as a shutdown signal rather than a data stream.
var stopWords = []string{"stop", "done", "quit", "exit", "close", "shutdown", "cancel"}

// stopNamed reports whether an expression is, by name, a stop signal: a
// ctx.Done()-style accessor call or a channel whose final identifier
// contains a conventional shutdown word.
func stopNamed(e ast.Expr) bool {
	var name string
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.CallExpr:
		switch f := ast.Unparen(x.Fun).(type) {
		case *ast.SelectorExpr:
			name = f.Sel.Name
		case *ast.Ident:
			name = f.Name
		}
	case *ast.IndexExpr:
		return stopNamed(x.X)
	default:
		return false
	}
	name = strings.ToLower(name)
	for _, w := range stopWords {
		if strings.Contains(name, w) {
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
