// Package instmix describes the instruction mix of kernel bodies.
//
// The paper gathers "instruction features" — the frequency of grouped x86
// mnemonics inside each RAJA lambda — from the application binary using the
// Dyninst library. Binary analysis is not available here, so each kernel in
// this repository registers a declarative instruction-mix descriptor
// instead. The decision models only ever consume the mnemonic histogram, so
// a static descriptor supplies exactly the same feature vector the paper's
// Dyninst pass would.
//
// The mnemonic groups are those listed in Table I of the paper (for
// example, the Add group covers add, addpd, and addsd), plus movsd, which
// the paper's feature-importance analysis (Fig. 8) calls out separately as
// a scalar-load indicator.
package instmix

import (
	"fmt"
	"strings"
)

// Group identifies one grouped instruction mnemonic from Table I.
type Group int

// The grouped mnemonics collected for each kernel (paper Table I).
const (
	Add Group = iota
	And
	Call
	Cmp
	Comisd
	Divsd
	Inc
	Jb
	Lea
	Loop
	Maxsd
	Minsd
	Mov
	Movsd
	Mulpd
	Nop
	Pop
	Push
	Pxor
	Ret
	Sar
	Shl
	Sqrtsd
	Sub
	Test
	Ucomisd
	Unpckhpd
	Unpcklpd
	Xor
	Xorps
	NumGroups // number of mnemonic groups
)

var groupNames = [NumGroups]string{
	Add: "add", And: "and", Call: "call", Cmp: "cmp", Comisd: "comisd",
	Divsd: "divsd", Inc: "inc", Jb: "jb", Lea: "lea", Loop: "loop",
	Maxsd: "maxsd", Minsd: "minsd", Mov: "mov", Movsd: "movsd",
	Mulpd: "mulpd", Nop: "nop", Pop: "pop", Push: "push", Pxor: "pxor",
	Ret: "ret", Sar: "sar", Shl: "shl_sal", Sqrtsd: "sqrtsd", Sub: "sub",
	Test: "test", Ucomisd: "ucomisd", Unpckhpd: "unpckhpd",
	Unpcklpd: "unpcklpd", Xor: "xor", Xorps: "xorps",
}

// String returns the mnemonic group name as it appears in training data.
func (g Group) String() string {
	if g < 0 || g >= NumGroups {
		return fmt.Sprintf("group(%d)", int(g))
	}
	return groupNames[g]
}

// GroupByName returns the group with the given Table I name.
func GroupByName(name string) (Group, bool) {
	for g, n := range groupNames {
		if n == name {
			return Group(g), true
		}
	}
	return 0, false
}

// GroupNames returns the names of all mnemonic groups in group order.
func GroupNames() []string {
	names := make([]string, NumGroups)
	for i := range names {
		names[i] = groupNames[i]
	}
	return names
}

// Mix holds the per-iteration instruction counts of one kernel body,
// grouped by mnemonic. Counts are fractional because a body's dynamic mix
// per loop iteration may average over internal branches. With, Scale and
// Merge build a mix; once a kernel carrying it has launched it must not
// change (see raja.Kernel) — derive variants from a Clone.
type Mix struct {
	counts [NumGroups]float64
}

// NewMix returns an empty instruction mix.
func NewMix() *Mix { return &Mix{} }

// With adds n occurrences of group g and returns the mix for chaining.
func (m *Mix) With(g Group, n float64) *Mix {
	m.counts[g] += n
	return m
}

// Count returns the number of occurrences of group g.
func (m *Mix) Count(g Group) float64 { return m.counts[g] }

// FuncSize returns the total instruction count of the kernel body,
// the paper's func_size feature.
func (m *Mix) FuncSize() float64 {
	var total float64
	for _, c := range m.counts {
		total += c
	}
	return total
}

// LoadsPerIter estimates the number of 8-byte loads per iteration.
// Scalar SSE loads (movsd) and general moves contribute; roughly half of
// mov instructions touch memory on typical compiled kernels.
func (m *Mix) LoadsPerIter() float64 {
	return m.counts[Movsd] + 0.5*m.counts[Mov]
}

// StoresPerIter estimates the number of 8-byte stores per iteration.
func (m *Mix) StoresPerIter() float64 {
	return 0.35*m.counts[Movsd] + 0.25*m.counts[Mov]
}

// BytesPerIter returns the estimated memory traffic of one iteration.
func (m *Mix) BytesPerIter() float64 {
	return 8 * (m.LoadsPerIter() + m.StoresPerIter())
}

// Clone returns a deep copy of the mix.
func (m *Mix) Clone() *Mix {
	c := *m
	return &c
}

// Scale multiplies every count by f and returns the mix for chaining.
// It is useful for deriving boundary-kernel variants of interior kernels.
func (m *Mix) Scale(f float64) *Mix {
	for i := range m.counts {
		m.counts[i] *= f
	}
	return m
}

// Merge adds every count of other into m and returns m.
func (m *Mix) Merge(other *Mix) *Mix {
	for i := range m.counts {
		m.counts[i] += other.counts[i]
	}
	return m
}

// String renders the non-zero groups, e.g. "add:4 mulpd:2 movsd:6".
func (m *Mix) String() string {
	var b strings.Builder
	for g := Group(0); g < NumGroups; g++ {
		if m.counts[g] != 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%g", g, m.counts[g])
		}
	}
	return b.String()
}

// Costs holds the modeled cost, in nanoseconds, of one instruction from
// each mnemonic group.
type Costs [NumGroups]float64

// SandyBridgeCosts returns per-group instruction costs approximating a
// 2.6 GHz Sandy Bridge core (reciprocal throughputs at ~0.385 ns/cycle,
// assuming modest instruction-level parallelism).
func SandyBridgeCosts() Costs {
	var c Costs
	cycle := 1.0 / 2.6 // ns per cycle at 2.6 GHz
	cheap := 0.33 * cycle
	for g := range c {
		c[g] = cheap
	}
	c[Add] = 0.5 * cycle
	c[Sub] = 0.5 * cycle
	c[Mulpd] = 0.6 * cycle
	c[Divsd] = 14 * cycle
	c[Sqrtsd] = 14 * cycle
	c[Maxsd] = 0.8 * cycle
	c[Minsd] = 0.8 * cycle
	c[Comisd] = 0.9 * cycle
	c[Ucomisd] = 0.9 * cycle
	c[Mov] = 0.5 * cycle
	c[Movsd] = 0.9 * cycle
	c[Call] = 4 * cycle
	c[Ret] = 3 * cycle
	c[Push] = 0.9 * cycle
	c[Pop] = 0.9 * cycle
	c[Unpckhpd] = 0.9 * cycle
	c[Unpcklpd] = 0.9 * cycle
	c[Nop] = 0.1 * cycle
	return c
}

// CostNS returns the modeled compute cost in nanoseconds of one iteration
// of a body with this mix, under the given per-group costs.
func (m *Mix) CostNS(costs *Costs) float64 {
	var total float64
	for g, n := range m.counts {
		total += n * costs[g]
	}
	return total
}
