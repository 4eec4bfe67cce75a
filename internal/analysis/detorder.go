package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetOrder flags range-over-map loops whose body feeds an
// order-sensitive sink: serialization (encoding/json, encoding/gob,
// encoding/xml), stream writes (fmt.Fprint*/Print*, Write/WriteString on
// bytes.Buffer, strings.Builder, bufio/io writers), hashing (hash.*,
// crypto/*, Sum*), or a module-internal function whose name marks it as
// an encoder (Marshal*/Encode*/Write*/Fprint* prefixes, or containing
// Hash/Fingerprint). Go randomizes map iteration order per run, so bytes
// produced this way differ between identical inputs — nondeterministic
// model artifacts, spurious ETag churn, unstable golden files.
//
// The idiomatic fix — collect keys into a slice, sort, iterate the
// slice — is untouched: appending to a slice inside the range is not a
// sink. fmt.Sprint*/Errorf are also permitted (the value may be sorted
// or compared later). A deliberate order-insensitive use is waived with
// //apollo:detorderok <reason> on the sink line or the range line.
var DetOrder = &Analyzer{
	Name:   "detorder",
	Doc:    "map iteration must not feed serialization, hashing, or encoding",
	run:    runDetOrder,
	waives: []string{dirDetOrderOK},
}

func runDetOrder(f *facts) []Diagnostic {
	g, fset := f.g, f.prog.Fset
	var diags []Diagnostic
	seen := map[token.Pos]bool{}
	for _, fi := range f.funcs {
		if fi.decl.Body == nil {
			continue
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := exprType(fi.pkg.Info, rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					desc := sinkDesc(g, fi.pkg, m)
					if desc == "" || seen[m.Pos()] {
						return true
					}
					if f.waived(fi.lines, m.Pos(), dirDetOrderOK) || f.waived(fi.lines, rng.Pos(), dirDetOrderOK) {
						return true
					}
					seen[m.Pos()] = true
					diags = append(diags, Diagnostic{
						Pos:      fset.Position(m.Pos()),
						Analyzer: "detorder",
						Message: fmt.Sprintf("map iteration order feeds %s: output bytes differ between runs; iterate a sorted key slice instead",
							desc),
					})
				}
				return true
			})
			return true
		})
	}
	return diags
}

// sinkDesc classifies a call inside a map-range body as order-sensitive,
// returning a printable description or "".
func sinkDesc(g *graph, pkg *Package, call *ast.CallExpr) string {
	var obj *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ = pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return ""
			}
			obj, _ = sel.Obj().(*types.Func)
		} else {
			obj, _ = pkg.Info.Uses[fun.Sel].(*types.Func)
		}
	}
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if g.inModule(obj) {
		name := obj.Name()
		lower := strings.ToLower(name)
		for _, prefix := range []string{"marshal", "encode", "write", "fprint"} {
			if strings.HasPrefix(lower, prefix) {
				return displayName(obj)
			}
		}
		if strings.Contains(lower, "hash") || strings.Contains(lower, "fingerprint") {
			return displayName(obj)
		}
		return ""
	}
	return externalSinkDesc(obj)
}

// externalSinkDesc classifies out-of-module order-sensitive calls.
func externalSinkDesc(obj *types.Func) string {
	pkg := obj.Pkg()
	name := obj.Name()
	path := pkg.Path()
	switch path {
	case "encoding/json", "encoding/xml":
		switch name {
		case "Marshal", "MarshalIndent", "Encode", "EncodeElement":
			return path + "." + name
		}
	case "encoding/gob":
		switch name {
		case "Encode", "EncodeValue":
			return path + "." + name
		}
	case "fmt":
		if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") {
			return "fmt." + name
		}
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Sum", "Sum32", "Sum64":
		if path == "bytes" || path == "strings" || path == "bufio" || path == "io" ||
			path == "hash" || strings.HasPrefix(path, "hash/") || strings.HasPrefix(path, "crypto/") {
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				return "(" + types.TypeString(recv.Type(), shortQualifier) + ")." + name
			}
		}
	}
	return ""
}
