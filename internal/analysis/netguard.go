package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// NetGuard enforces deadline discipline on outbound HTTP: a request
// without a timeout is an unbounded liability in a fleet member, and a
// flat-sleep retry loop synchronizes stampedes. It reports:
//
//   - package-level net/http helpers (http.Get/Head/Post/PostForm),
//     which ride the timeout-less http.DefaultClient;
//   - any use of the http.DefaultClient variable itself;
//   - an http.Client composite literal without a Timeout field;
//   - a retry loop — a for/range whose body both performs an HTTP round
//     trip and sleeps — that does not route through a module backoff
//     helper (any function whose name contains "backoff" supplies the
//     jitter contract).
//
// There is deliberately no waiver: every finding has a mechanical fix
// (construct a Client with Timeout, or call the backoff helper), so a
// justified exception should become a named helper instead of a comment.
var NetGuard = &Analyzer{
	Name: "netguard",
	Doc:  "outbound HTTP must carry deadlines and retry through jittered backoff",
	run:  runNetGuard,
}

func runNetGuard(f *facts) []Diagnostic {
	var diags []Diagnostic
	for _, fi := range f.funcs {
		if fi.decl.Body != nil {
			diags = append(diags, netGuardCheckFunc(f.prog, f.g, fi)...)
		}
	}
	return diags
}

// netHTTPFunc reports whether obj is the named function/method from
// net/http.
func netHTTPObj(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

func netGuardCheckFunc(prog *Program, g *graph, fi *funcInfo) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:      prog.Fset.Position(n.Pos()),
			Analyzer: "netguard",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	info := fi.pkg.Info
	bindings := methodBindings(fi.pkg, fi.decl.Body)

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ext := staticCallee(fi.pkg, bindings, n)
			if ext != nil && netHTTPObj(ext) && ext.Type().(*types.Signature).Recv() == nil {
				switch ext.Name() {
				case "Get", "Head", "Post", "PostForm":
					report(n, "http.%s uses the timeout-less http.DefaultClient; construct an http.Client with a Timeout", ext.Name())
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && netHTTPObj(v) && v.Name() == "DefaultClient" {
				report(n, "http.DefaultClient has no timeout; construct an http.Client with a Timeout")
			}
		case *ast.CompositeLit:
			t := exprType(info, n)
			if t == nil {
				return true
			}
			named, ok := t.(*types.Named)
			if !ok || !netHTTPObj(named.Obj()) || named.Obj().Name() != "Client" {
				return true
			}
			hasTimeout := false
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Timeout" {
						hasTimeout = true
					}
				}
			}
			if !hasTimeout {
				report(n, "http.Client literal without a Timeout; an outbound request must carry a deadline")
			}
		case *ast.ForStmt:
			diags = append(diags, netGuardCheckLoop(prog, g, fi, bindings, n.Body)...)
		case *ast.RangeStmt:
			diags = append(diags, netGuardCheckLoop(prog, g, fi, bindings, n.Body)...)
		}
		return true
	})
	return diags
}

// netGuardCheckLoop flags a retry loop (HTTP round trip + sleep in one
// loop body, nested literals excluded) that bypasses the backoff
// helpers.
func netGuardCheckLoop(prog *Program, g *graph, fi *funcInfo,
	bindings map[types.Object]*types.Func, body *ast.BlockStmt) []Diagnostic {
	hasNet := false
	hasBackoff := false
	var sleepPos ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return false // nested loops report on their own
		case *ast.CallExpr:
			if ext := staticCallee(fi.pkg, bindings, n); ext != nil {
				pkg := ext.Pkg()
				switch {
				case netHTTPObj(ext):
					hasNet = true
				case pkg != nil && pkg.Path() == "net" && strings.HasPrefix(ext.Name(), "Dial"):
					hasNet = true
				case pkg != nil && pkg.Path() == "time" && ext.Name() == "Sleep":
					if sleepPos == nil {
						sleepPos = n
					}
				}
			}
			callees, _ := g.resolve(fi.pkg, bindings, n)
			for _, c := range callees {
				if strings.Contains(strings.ToLower(c.fn.obj.Name()), "backoff") {
					hasBackoff = true
				}
			}
		}
		return true
	})
	if hasNet && sleepPos != nil && !hasBackoff {
		return []Diagnostic{{
			Pos:      prog.Fset.Position(sleepPos.Pos()),
			Analyzer: "netguard",
			Message:  "flat time.Sleep retry around a network call; route the delay through the jittered backoff helper",
		}}
	}
	return nil
}
