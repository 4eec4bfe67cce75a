package raja

import (
	"sync/atomic"
	"time"

	"apollo/internal/instmix"
	"apollo/internal/platform"
	"apollo/internal/team"
)

// kernelIDs allocates the loop_id feature: a unique address-like
// identifier per kernel launch site, as the paper derives from the
// kernel's code address.
var kernelIDs atomic.Uint64

// Kernel describes one forall launch site: its name (the func feature),
// its unique loop_id, and the instruction mix of its body (the paper's
// Dyninst-derived instruction features; see package instmix for the
// substitution).
//
// Name, ID and Mix (the pointer and the counts behind it) are immutable
// once the site has launched: feature extraction bakes the features they
// determine into a per-site static block on the first launch and never
// reads them again, as a compiled binary's code address and instruction
// mix never change under a running application. Build the mix fully
// before NewKernel, or at the latest before the first ForAll.
type Kernel struct {
	Name string
	ID   uint64
	Mix  *instmix.Mix

	invocations atomic.Uint64
}

// NewKernel registers a kernel launch site with the given name and
// instruction mix and returns it. Kernels are typically package-level
// variables, one per source loop, like RAJA forall sites.
func NewKernel(name string, mix *instmix.Mix) *Kernel {
	if mix == nil {
		mix = instmix.NewMix()
	}
	return &Kernel{Name: name, ID: kernelIDs.Add(1), Mix: mix}
}

// Invocations returns how many times the kernel has been launched.
func (k *Kernel) Invocations() uint64 { return k.invocations.Load() }

// Hooks is the interface between ForAll and Apollo, corresponding to the
// apollo::begin / apollo::end calls the paper adds around each RAJA loop
// template. Hooks are for deciding, as a Tuner does; a component that
// only watches launches is the context's Observe, and one that only
// forces parameters is its Default with no Hooks.
type Hooks interface {
	// Begin is called before the launch with the kernel and its index
	// set. If override is true, the returned Params replace the
	// context's default.
	Begin(k *Kernel, iset *IndexSet) (p Params, override bool)
	// End is called after the launch with the parameters used and the
	// measured (or modeled) elapsed time in nanoseconds.
	End(k *Kernel, iset *IndexSet, p Params, elapsedNS float64)
}

// Context carries the execution environment for ForAll: the worker team,
// the optional simulated clock, the decider, the static default and the
// observer. A pinned launch (Default the fixed choice, Hooks nil) reaches
// no decider; its observer still sees it.
type Context struct {
	// Team executes parallel policies. May be nil in pure-simulation
	// contexts, in which case parallel launches run sequentially but
	// are still timed as parallel by the simulated clock.
	Team *team.Team
	// Sim, when non-nil, supplies kernel timings from the analytic
	// machine model instead of the wall clock (see package platform).
	Sim *platform.SimClock
	// Hooks is the installed decider (a tuner or an online search).
	Hooks Hooks
	// Default is the static parameter choice used when Hooks is nil or
	// declines to override — e.g. OpenMP-everywhere, the default the
	// paper compares against, or the candidate variant of a training run.
	Default Params
	// Observe, when non-nil, sees every launch after Hooks.End: a
	// recorder, a tracer or a rank timer. It never changes what runs.
	Observe func(k *Kernel, iset *IndexSet, p Params, elapsedNS float64)
}

// NewSimContext returns a context that executes kernels under the analytic
// machine model with the given default parameters.
func NewSimContext(clock *platform.SimClock, def Params) *Context {
	return &Context{Sim: clock, Default: def}
}

// ForAll launches the kernel body over the index set, selecting execution
// parameters through the context's hooks, reports the launch to the
// context's observer, and returns the elapsed time in nanoseconds. It is the analogue of RAJA::forall with the paper's Apollo
// begin/end hooks inlined.
func ForAll(ctx *Context, k *Kernel, iset *IndexSet, body func(i int)) float64 {
	params := ctx.Default
	if ctx.Hooks != nil {
		if p, ok := ctx.Hooks.Begin(k, iset); ok {
			params = p
		}
	}
	inv := k.invocations.Add(1)

	var elapsed float64
	if ctx.Sim != nil {
		// Simulated platform: the body still executes (the
		// applications' numerics depend on it) but the reported time
		// is the machine model's prediction for the chosen policy.
		execSeq(iset, body)
		key := k.ID<<32 + inv
		elapsed = ctx.Sim.KernelTimeNS(k.Mix, iset.Len(), params.Policy.Parallel(), params.Chunk, key)
	} else {
		start := time.Now()
		PolicySwitcher(params, ctx.Team, iset, body)
		elapsed = float64(time.Since(start).Nanoseconds())
	}

	if ctx.Hooks != nil {
		ctx.Hooks.End(k, iset, params, elapsed)
	}
	if ctx.Observe != nil {
		ctx.Observe(k, iset, params, elapsed)
	}
	return elapsed
}
