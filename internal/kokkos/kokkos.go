// Package kokkos is a second performance-portability frontend over the
// same Apollo tuning machinery — the paper's stated future work:
// "While Apollo is implemented in RAJA, the techniques for separating the
// concerns of implementation and tuning are general, and we plan to apply
// these techniques to other performance portability frameworks."
//
// The package mirrors the Kokkos programming model's surface — execution
// spaces, ParallelFor/ParallelReduce over RangePolicy, MDRangePolicy and
// TeamPolicy — and lowers every dispatch onto the shared raja execution
// core (kernel sites, index sets, the context's decider and observer,
// and the policy switcher). It has no hooks of its own: a model trained
// from RAJA-recorded samples tunes Kokkos dispatches unchanged, because
// both frontends emit the same Table I feature vectors.
package kokkos

import (
	"fmt"
	"sync"

	"apollo/internal/instmix"
	"apollo/internal/raja"
)

// ExecSpace names a Kokkos execution space. Serial maps to the
// sequential policy and OpenMP to the worker team; DefaultExecSpace
// leaves the choice to Apollo (or the context default).
type ExecSpace int

// Execution spaces.
const (
	DefaultExecSpace ExecSpace = iota
	Serial
	OpenMP
)

// String names the space.
func (s ExecSpace) String() string {
	switch s {
	case DefaultExecSpace:
		return "DefaultExecSpace"
	case Serial:
		return "Serial"
	case OpenMP:
		return "OpenMP"
	}
	return fmt.Sprintf("ExecSpace(%d)", int(s))
}

// RangePolicy is a 1D iteration range [Begin, End) in an execution space.
type RangePolicy struct {
	Space      ExecSpace
	Begin, End int
	// ChunkSize is the static-schedule chunk (0 = default), matching
	// Kokkos's ChunkSize policy parameter.
	ChunkSize int
}

// MDRangePolicy is a 2D rectangular iteration space, dispatched row-major.
type MDRangePolicy struct {
	Space        ExecSpace
	Begin0, End0 int // slow dimension
	Begin1, End1 int // fast dimension
	ChunkSize    int
}

// TeamPolicy launches LeagueSize teams; each team's members execute the
// body with a TeamMember handle, as in Kokkos hierarchical parallelism.
type TeamPolicy struct {
	Space      ExecSpace
	LeagueSize int
	TeamSize   int // informational; member loops run via TeamThreadRange
}

// TeamMember is the per-team handle passed to team bodies.
type TeamMember struct {
	leagueRank int
	policy     TeamPolicy
	ctx        *raja.Context
}

// LeagueRank returns the team's index in the league.
func (m TeamMember) LeagueRank() int { return m.leagueRank }

// LeagueSize returns the league size.
func (m TeamMember) LeagueSize() int { return m.policy.LeagueSize }

// registry deduplicates kernel sites by label so repeated dispatches of
// the same named kernel share one site (Kokkos identifies kernels by
// label + type; we use the label).
var (
	regMu sync.Mutex
	reg   = map[string]*raja.Kernel{}
)

// kernelFor returns the shared kernel site for a label.
func kernelFor(label string, mix *instmix.Mix) *raja.Kernel {
	regMu.Lock()
	defer regMu.Unlock()
	if k, ok := reg[label]; ok {
		return k
	}
	k := raja.NewKernel(label, mix)
	reg[label] = k
	return k
}

// Kernels returns all registered Kokkos kernel sites (for reports).
func Kernels() []*raja.Kernel {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*raja.Kernel, 0, len(reg))
	for _, k := range reg {
		out = append(out, k)
	}
	return out
}

// spaceParams converts an execution space to launch parameters;
// ok=false means "let Apollo decide".
func spaceParams(space ExecSpace, chunk int) (raja.Params, bool) {
	switch space {
	case Serial:
		return raja.Params{Policy: raja.SeqExec}, true
	case OpenMP:
		return raja.Params{Policy: raja.OmpParallelForExec, Chunk: chunk}, true
	default:
		return raja.Params{}, false
	}
}

// dispatch runs one lowering through the raja core. An explicit
// execution space pins the launch, as a hard-coded Kokkos space
// annotation would: it runs with the space's parameters as the context's
// Default and no decider, so the context's observer still sees it and
// its decider never does.
func dispatch(ctx *raja.Context, space ExecSpace, chunk int, k *raja.Kernel, iset *raja.IndexSet, body func(i int)) float64 {
	if params, pinned := spaceParams(space, chunk); pinned {
		sub := *ctx
		sub.Default, sub.Hooks = params, nil
		return raja.ForAll(&sub, k, iset, body)
	}
	return raja.ForAll(ctx, k, iset, body)
}

// ParallelFor executes body(i) over the policy's range. The label
// identifies the kernel site; mix registers its instruction profile on
// first use (nil is accepted for feature-less kernels).
func ParallelFor(ctx *raja.Context, label string, mix *instmix.Mix, policy RangePolicy, body func(i int)) float64 {
	k := kernelFor(label, mix)
	iset := raja.NewRange(policy.Begin, policy.End)
	return dispatch(ctx, policy.Space, policy.ChunkSize, k, iset, body)
}

// ParallelForMD executes body(i0, i1) over the 2D policy, lowered to a
// row-major flat range so Apollo sees the true trip count.
func ParallelForMD(ctx *raja.Context, label string, mix *instmix.Mix, policy MDRangePolicy, body func(i0, i1 int)) float64 {
	k := kernelFor(label, mix)
	n0 := policy.End0 - policy.Begin0
	n1 := policy.End1 - policy.Begin1
	if n0 < 0 {
		n0 = 0
	}
	if n1 < 0 {
		n1 = 0
	}
	iset := raja.NewRange(0, n0*n1)
	return dispatch(ctx, policy.Space, policy.ChunkSize, k, iset, func(i int) {
		body(policy.Begin0+i/n1, policy.Begin1+i%n1)
	})
}

// ParallelReduce executes body over the range, accumulating a sum. Each
// iteration's contribution goes into a per-slot partial (indexed by
// iteration) so parallel execution is race-free; the partials reduce
// sequentially after the join, as Kokkos reducers do.
func ParallelReduce(ctx *raja.Context, label string, mix *instmix.Mix, policy RangePolicy, body func(i int) float64) (float64, float64) {
	k := kernelFor(label, mix)
	n := policy.End - policy.Begin
	if n <= 0 {
		return 0, 0
	}
	partials := make([]float64, n)
	iset := raja.NewRange(policy.Begin, policy.End)
	elapsed := dispatch(ctx, policy.Space, policy.ChunkSize, k, iset, func(i int) {
		partials[i-policy.Begin] = body(i)
	})
	var total float64
	for _, v := range partials {
		total += v
	}
	return total, elapsed
}

// ParallelForTeam launches the league: body runs once per team with its
// TeamMember handle. The league dispatch itself is a tunable kernel
// (LeagueSize iterations).
func ParallelForTeam(ctx *raja.Context, label string, mix *instmix.Mix, policy TeamPolicy, body func(m TeamMember)) float64 {
	k := kernelFor(label, mix)
	iset := raja.NewRange(0, policy.LeagueSize)
	return dispatch(ctx, policy.Space, 0, k, iset, func(i int) {
		body(TeamMember{leagueRank: i, policy: policy, ctx: ctx})
	})
}

// TeamThreadRange iterates a member's nested range sequentially, as a
// team-level nested loop (the outer league dispatch carries the
// parallelism).
func (m TeamMember) TeamThreadRange(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}
