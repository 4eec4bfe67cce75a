package analysis

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"testing"
)

// loadModule loads one testdata corpus module and returns its program
// plus call graph.
func loadModule(t *testing.T, module string) (*Program, *graph) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", module))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir)
	if err != nil {
		t.Fatalf("load %s: %v", module, err)
	}
	return prog, buildGraph(prog)
}

// funcNamed finds a module function by bare name.
func funcNamed(t *testing.T, g *graph, name string) *funcInfo {
	t.Helper()
	for obj, fi := range g.funcs {
		if obj.Name() == name {
			return fi
		}
	}
	t.Fatalf("function %s not in graph", name)
	return nil
}

// TestErrReads pins the error-def-use summary: a function that never
// mentions its error parameter reports the slot dead, a direct reader
// reports it live, and a forward into a reader counts transitively.
func TestErrReads(t *testing.T) {
	_, g := loadModule(t, "errmod")
	er := newErrReads(g)

	cases := []struct {
		fn   string
		slot int // paramObjs index of the error parameter
		want bool
	}{
		{"logCount", 1, false}, // param named err, body never mentions it
		{"observe", 0, true},   // compared against nil
		{"relay", 0, true},     // forwarded into observe, which reads it
	}
	for _, c := range cases {
		mask := er.reads(funcNamed(t, g, c.fn))
		if c.slot >= len(mask) {
			t.Fatalf("%s: mask has %d slots, want index %d", c.fn, len(mask), c.slot)
		}
		if mask[c.slot] != c.want {
			t.Errorf("%s: error slot %d observed=%v, want %v", c.fn, c.slot, mask[c.slot], c.want)
		}
	}
}

// TestErrReadsNonErrorSlots pins the conservative default: non-error
// parameters are always reported observed, whether or not the body
// touches them.
func TestErrReadsNonErrorSlots(t *testing.T) {
	_, g := loadModule(t, "errmod")
	er := newErrReads(g)
	mask := er.reads(funcNamed(t, g, "logCount"))
	if len(mask) != 2 {
		t.Fatalf("logCount mask has %d slots, want 2", len(mask))
	}
	if !mask[0] {
		t.Error("non-error slot 0 reported unobserved; must stay conservatively true")
	}
}

// TestChanBuffering pins the module-wide buffering facts over ctxmod:
// make(chan int) is known-unbuffered, make(chan int, 8) is not.
func TestChanBuffering(t *testing.T) {
	prog, g := loadModule(t, "ctxmod")
	cb := buildChanBuffering(prog)

	chanIn := func(fn string) map[string]bool {
		fi := funcNamed(t, g, fn)
		out := map[string]bool{}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v := chanVar(fi.pkg, id); v != nil {
					out[id.Name] = cb.knownUnbuffered(v)
				}
			}
			return true
		})
		return out
	}

	if got := chanIn("StartPush"); !got["ch"] {
		t.Errorf("StartPush's make(chan int) not known-unbuffered: %v", got)
	}
	if got := chanIn("StartBuffered"); got["ch"] {
		t.Errorf("StartBuffered's make(chan int, 8) reported unbuffered: %v", got)
	}
}

// TestStopNamed pins the stop-signal name classifier ctxflow applies to
// select cases.
func TestStopNamed(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"stopCh", true},
		{"d.stop", true},
		{"ctx.Done()", true},
		{"quit", true},
		{"shutdownC", true},
		{"cancelled[i]", true},
		{"d.data", false},
		{"results", false},
		{"t.C", false},
	}
	for _, c := range cases {
		e, err := parser.ParseExpr(c.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		if got := stopNamed(e); got != c.want {
			t.Errorf("stopNamed(%s) = %v, want %v", c.expr, got, c.want)
		}
	}
}
