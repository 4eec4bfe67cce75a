package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// WaiverDrift keeps the annotation contract honest: a waiver that no
// longer suppresses anything is a lie waiting to hide a future
// regression. It runs after the waiving analyzers (hotpath, lockscope,
// errsink, ctxflow) and reads the waiver uses they recorded, then
// reports:
//
//   - every //apollo:allocok, //apollo:lockok, //apollo:coldpath,
//     //apollo:errok, or //apollo:ctxok directive that did not suppress
//     a single diagnostic (for coldpath: that no hot-path traversal
//     stopped at);
//   - every //apollo:blocking function whose body provably cannot block
//     (no channel operation, mutex acquisition, blocking external call,
//     or transitively blocking module callee), so stale blocking
//     annotations stop poisoning hot-path and lock-scope checks.
var WaiverDrift = &Analyzer{
	Name: "waiverdrift",
	Doc:  "waiver and blocking annotations must still be live",
	run:  runWaiverDrift,
}

func runWaiverDrift(f *facts) []Diagnostic {
	prog := f.prog
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, grp := range file.Comments {
				for _, d := range parseDirectives(grp) {
					if !f.waiverDirs[d.name] || f.uses.isUsed(d.pos) {
						continue
					}
					diags = append(diags, Diagnostic{
						Pos:      prog.Fset.Position(d.pos),
						Analyzer: "waiverdrift",
						Message:  fmt.Sprintf("stale //apollo:%s waiver: it no longer suppresses any diagnostic; delete it", d.name),
					})
				}
			}
		}
	}

	// Blocking truthfulness: //apollo:blocking on a function that cannot
	// block misreports every caller.
	bt := &blockTruth{g: f.g, memo: map[*types.Func]bool{}, visiting: map[*types.Func]bool{}}
	for _, fi := range f.funcs {
		// Bodyless declarations keep the annotation on trust.
		if fi.blocking && fi.decl.Body != nil && !bt.mayBlock(fi) {
			diags = append(diags, Diagnostic{
				Pos:      prog.Fset.Position(fi.blockingPos),
				Analyzer: "waiverdrift",
				Message: fmt.Sprintf("stale //apollo:blocking on %s: the body cannot block (no channel op, lock, or blocking call); remove the annotation",
					displayName(fi.obj)),
			})
		}
	}
	return diags
}

// blockTruth decides whether a function body can actually block:
// channel operations, mutex acquisition, blocking external calls, or a
// transitively blocking module callee (through static calls and
// interface dispatch onto module implementations).
type blockTruth struct {
	g        *graph
	memo     map[*types.Func]bool
	visiting map[*types.Func]bool
}

func (bt *blockTruth) mayBlock(fi *funcInfo) bool {
	if v, ok := bt.memo[fi.obj]; ok {
		return v
	}
	if bt.visiting[fi.obj] {
		return false // recursion cycles resolve to non-blocking
	}
	bt.visiting[fi.obj] = true
	defer delete(bt.visiting, fi.obj)

	blocks := false
	if fi.decl.Body != nil {
		bindings := methodBindings(fi.pkg, fi.decl.Body)
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if blocks {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt, *ast.SelectStmt, *ast.GoStmt:
				blocks = true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					blocks = true
				}
			case *ast.RangeStmt:
				if t := exprType(fi.pkg.Info, n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						blocks = true
					}
				}
			case *ast.CallExpr:
				if _, op, ok := lockCallExpr(fi.pkg, n); ok {
					if op == "Lock" || op == "RLock" {
						blocks = true
					}
					return true
				}
				callees, ext := bt.g.resolve(fi.pkg, bindings, n)
				if ext != nil {
					if blockingExternal(ext) != "" {
						blocks = true
					}
					return true
				}
				for _, c := range callees {
					if c.fn.blocking && c.fn.obj != fi.obj {
						blocks = true
						return false
					}
					if bt.mayBlock(c.fn) {
						blocks = true
						return false
					}
				}
			}
			return true
		})
	}
	bt.memo[fi.obj] = blocks
	return blocks
}
