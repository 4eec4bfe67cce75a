package analysis

import (
	"fmt"
	"go/types"
	"strings"
)

// AtomicAlign bans the primitive 64-bit sync/atomic functions
// (atomic.AddInt64(&x, 1), atomic.LoadUint64(&s.n), ...) from module
// code. Their operand must be 64-bit aligned, and a 32-bit target
// (GOARCH=386/arm) guarantees that only for the first word of an
// allocation: a uint64 struct field or slice element behind a 4-byte
// neighbour is not, and the operation panics there at run time. The
// typed atomic.Int64/Uint64 carry the alignment in the type on every
// target, and the module uses nothing else; this analyzer keeps it that
// way instead of modelling 32-bit struct layout for an escape hatch
// nobody takes. The GOARCH=386 cross-build in `make lint` is the
// dynamic twin: it keeps the module compiling for such a target.
var AtomicAlign = &Analyzer{
	Name: "atomicalign",
	Doc:  "64-bit atomics must be the typed atomic.Int64/Uint64, never the primitive sync/atomic functions",
	run:  runAtomicAlign,
}

func runAtomicAlign(f *facts) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range f.prog.Packages {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				continue
			}
			// Every package-level sync/atomic function named *Int64 or
			// *Uint64 takes a raw *int64/*uint64; the typed atomics'
			// methods are named Add, Load, ... and never match.
			name := fn.Name()
			if !strings.HasSuffix(name, "Int64") && !strings.HasSuffix(name, "Uint64") {
				continue
			}
			typed := "atomic.Int64"
			if strings.HasSuffix(name, "Uint64") {
				typed = "atomic.Uint64"
			}
			diags = append(diags, Diagnostic{
				Pos:      f.prog.Fset.Position(id.Pos()),
				Analyzer: "atomicalign",
				Message: fmt.Sprintf("atomic.%s needs a 64-bit-aligned operand, which 32-bit targets do not guarantee for fields and elements; use %s, which is aligned on every target",
					name, typed),
			})
		}
	}
	return diags
}
