package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// funcInfo is one module function declaration with its annotations.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	file *ast.File
	// lines is the directive index of the declaring file, shared by every
	// function in it.
	lines map[int][]directive

	hot      bool
	blocking bool
	cold     bool
	lockOK   bool

	// Directive comment positions, for waiver-use tracking (NoPos when
	// the directive is absent).
	blockingPos token.Pos
	coldPos     token.Pos
	lockOKPos   token.Pos
}

// facts is what one run knows about the program before any analyzer
// looks at it, built once by RunAllStats and shared by the analyzers it
// runs concurrently: the call graph, the declared functions in position
// order, the run's waiver-use record, and the module-wide summaries.
// errs fills its memo as it is asked and takes no lock: it has one
// reader (errsink). chans is one scan of the module on first use.
type facts struct {
	prog  *Program
	g     *graph
	funcs []*funcInfo
	uses  waiverUse
	errs  *errReads
	chans func() *chanBuffering
	// waiverDirs is waiverDirectives(), handed to waiverdrift through the
	// run because its own initializer cannot refer to All().
	waiverDirs map[string]bool
}

func newFacts(prog *Program) *facts {
	g := buildGraph(prog)
	f := &facts{prog: prog, g: g, errs: newErrReads(g),
		chans:      sync.OnceValue(func() *chanBuffering { return buildChanBuffering(prog) }),
		waiverDirs: waiverDirectives()}
	for _, fi := range g.funcs {
		f.funcs = append(f.funcs, fi)
	}
	sort.Slice(f.funcs, func(i, j int) bool { return f.funcs[i].decl.Pos() < f.funcs[j].decl.Pos() })
	return f
}

// waived reports whether a //apollo:<name> directive with a reason on
// pos's line waives a finding there, and records the directive as live.
func (f *facts) waived(lines map[int][]directive, pos token.Pos, name string) bool {
	d, ok := lineDirectiveAt(lines, f.prog.Fset, pos, name)
	if ok {
		f.uses.mark(d.pos)
	}
	return ok
}

// graph indexes every module function and resolves call sites through
// the type-checked AST: direct calls, method calls, locally bound method
// values, and interface dispatch onto module-local concrete types.
type graph struct {
	prog  *Program
	funcs map[*types.Func]*funcInfo
	// impls caches interface-method resolution: interface type string +
	// method name -> implementing module methods. The analyzers of a run
	// resolve calls concurrently, so it is filled under implMu.
	implMu sync.Mutex
	impls  map[string][]*funcInfo
}

// graphBuilds counts buildGraph calls, so a test can hold a run to one.
var graphBuilds atomic.Int64

// buildGraph indexes the program's function declarations.
func buildGraph(prog *Program) *graph {
	graphBuilds.Add(1)
	g := &graph{prog: prog, funcs: map[*types.Func]*funcInfo{}, impls: map[string][]*funcInfo{}}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			lines := lineDirectives(prog.Fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{obj: obj, decl: fd, pkg: pkg, file: file, lines: lines}
				_, _, fi.hot = funcDirective(fd, dirHotPath)
				_, fi.blockingPos, fi.blocking = funcDirective(fd, dirBlocking)
				if args, pos, ok := funcDirective(fd, dirColdPath); ok && args != "" {
					fi.cold = true
					fi.coldPos = pos
				}
				if args, pos, ok := funcDirective(fd, dirLockOK); ok && args != "" {
					fi.lockOK = true
					fi.lockOKPos = pos
				}
				g.funcs[obj] = fi
			}
		}
	}
	return g
}

// inModule reports whether the object belongs to the analyzed module.
func (g *graph) inModule(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == g.prog.ModulePath || strings.HasPrefix(path, g.prog.ModulePath+"/")
}

// callee is one resolved target of a call site.
type callee struct {
	fn *funcInfo
	// viaInterface names the interface the call dispatched through, ""
	// for static calls.
	viaInterface string
}

// resolve returns the module-internal targets of a call expression. The
// second result is the external (out-of-module) function object when the
// call statically targets one, for banned-call checks.
func (g *graph) resolve(pkg *Package, bindings map[types.Object]*types.Func, call *ast.CallExpr) ([]callee, *types.Func) {
	fun := ast.Unparen(call.Fun)
	// Explicit instantiation (F[int](x), pkg.F[K, V](x)) wraps the callee
	// in an index expression; the function is its operand.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			return g.calleesOf(obj)
		case *types.Var:
			// A local variable holding a method value or function value
			// bound earlier in the same function.
			if target, ok := bindings[obj]; ok {
				return g.calleesOf(target)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, nil // func-valued field: dynamic, unresolvable
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, nil
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return g.implementations(iface, sel.Recv(), m.Name()), nil
			}
			return g.calleesOf(m)
		}
		// Package-qualified call (pkg.F) or imported method expression.
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return g.calleesOf(obj)
		}
	}
	return nil, nil
}

// calleesOf maps a statically known function object to its callee form.
// A method of an instantiated generic type (Ring[Event].Reserve) or an
// instantiated generic function is a distinct object from the one its
// declaration defines; Origin maps it back, so the edge lands on the
// declared body instead of silently resolving to nothing.
func (g *graph) calleesOf(obj *types.Func) ([]callee, *types.Func) {
	obj = obj.Origin()
	if fi, ok := g.funcs[obj]; ok {
		return []callee{{fn: fi}}, nil
	}
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
			// Method of an interface (e.g. a method value through an
			// interface-typed variable): dispatch.
			return g.implementations(iface, recv.Type(), obj.Name()), nil
		}
	}
	if !g.inModule(obj) {
		return nil, obj
	}
	return nil, nil
}

// implementations returns the module methods that a call to method name
// through the given interface can reach: every module-local named type
// whose (pointer) method set implements the interface.
func (g *graph) implementations(iface *types.Interface, ifaceType types.Type, method string) []callee {
	if iface.NumMethods() == 0 {
		return nil
	}
	key := types.TypeString(ifaceType, nil) + "." + method
	g.implMu.Lock()
	defer g.implMu.Unlock()
	if impls, ok := g.impls[key]; ok {
		return asCallees(impls, ifaceType)
	}
	var impls []*funcInfo
	seen := map[*types.Func]bool{}
	for _, pkg := range g.prog.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for _, t := range []types.Type{named, types.NewPointer(named)} {
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					continue
				}
				if !types.Implements(t, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(t, true, nil, method)
				m, ok := obj.(*types.Func)
				if !ok || seen[m] {
					continue
				}
				seen[m] = true
				if fi, ok := g.funcs[m]; ok {
					impls = append(impls, fi)
				}
			}
		}
	}
	g.impls[key] = impls
	return asCallees(impls, ifaceType)
}

func asCallees(impls []*funcInfo, ifaceType types.Type) []callee {
	out := make([]callee, len(impls))
	name := types.TypeString(ifaceType, shortQualifier)
	for i, fi := range impls {
		out[i] = callee{fn: fi, viaInterface: name}
	}
	return out
}

// methodBindings scans a function body for local variables bound to
// method values or named functions (f := x.M; f()), so calls through
// them resolve statically.
func methodBindings(pkg *Package, body *ast.BlockStmt) map[types.Object]*types.Func {
	bindings := map[types.Object]*types.Func{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			var obj types.Object
			if assign.Tok == token.DEFINE {
				obj = pkg.Info.Defs[id]
			} else {
				obj = pkg.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			switch rhs := ast.Unparen(assign.Rhs[i]).(type) {
			case *ast.SelectorExpr:
				if sel, ok := pkg.Info.Selections[rhs]; ok && sel.Kind() == types.MethodVal {
					if m, ok := sel.Obj().(*types.Func); ok {
						bindings[obj] = m
					}
				}
			case *ast.Ident:
				if f, ok := pkg.Info.Uses[rhs].(*types.Func); ok {
					bindings[obj] = f
				}
			}
		}
		return true
	})
	return bindings
}

// shortQualifier renders package names without import paths.
func shortQualifier(p *types.Package) string { return p.Name() }

// displayName renders a function for call-chain diagnostics, e.g.
// "(*tuner.Tuner).Begin" or "features.Fingerprint".
func displayName(obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return "(" + types.TypeString(recv.Type(), shortQualifier) + ")." + obj.Name()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// parentsOf maps every node inside root to its parent node.
func parentsOf(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
