// Package mpirt simulates distributed (MPI-style) execution for the
// strong-scaling experiments (paper Figs. 12 and 13).
//
// The applications partition their AMR patches across R ranks; this
// package's Timer wraps the Apollo hooks, attributes every kernel launch
// to the owning rank (read from the caliper blackboard), and models each
// bulk-synchronous timestep as the maximum per-rank kernel time plus a
// communication term. Strong scaling is therefore a partitioning
// property, exactly as in the paper: more ranks mean smaller per-rank
// patch populations, more launches below the parallel crossover, and more
// opportunities for Apollo to win by running them sequentially.
package mpirt

import (
	"math"

	"apollo/internal/caliper"
	"apollo/internal/raja"
)

// Timer is a raja.Hooks wrapper that accounts kernel time per rank and
// models bulk-synchronous steps.
type Timer struct {
	// Inner is the wrapped hooks component (tuner, recorder, or nil).
	Inner raja.Hooks
	// Ann supplies the current rank annotation.
	Ann *caliper.Annotations
	// Ranks is the simulated rank count.
	Ranks int
	// LatencyNS is the per-step communication base cost.
	LatencyNS float64
	// PerHopNS scales the log2(R) communication term.
	PerHopNS float64

	perRank []float64
	totalNS float64
	steps   int
}

// NewTimer wraps hooks for an R-rank simulation with default
// communication constants (a 40 us halo exchange plus a 12 us-per-hop
// allreduce tree).
func NewTimer(inner raja.Hooks, ann *caliper.Annotations, ranks int) *Timer {
	if ranks < 1 {
		ranks = 1
	}
	return &Timer{
		Inner:     inner,
		Ann:       ann,
		Ranks:     ranks,
		LatencyNS: 40e3,
		PerHopNS:  12e3,
		perRank:   make([]float64, ranks),
	}
}

// Begin delegates to the wrapped hooks.
func (t *Timer) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	if t.Inner != nil {
		return t.Inner.Begin(k, iset)
	}
	return raja.Params{}, false
}

// End attributes the launch to its rank and delegates.
func (t *Timer) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	rank := int(t.Ann.GetOr("rank", 0))
	if rank < 0 || rank >= t.Ranks {
		rank = 0
	}
	t.perRank[rank] += elapsedNS
	if t.Inner != nil {
		t.Inner.End(k, iset, p, elapsedNS)
	}
}

// commNS models the per-step communication cost.
func (t *Timer) commNS() float64 {
	if t.Ranks == 1 {
		return 0
	}
	return t.LatencyNS + t.PerHopNS*math.Log2(float64(t.Ranks))
}

// StepBarrier closes one bulk-synchronous step: the step's wall time is
// the slowest rank's kernel time, plus extraNS of perfectly partitioned
// work outside Apollo's hooks (e.g. ARES's unported physics), plus
// communication. The per-rank accumulators reset for the next step.
func (t *Timer) StepBarrier(extraNS float64) {
	maxRank := 0.0
	for i, v := range t.perRank {
		if v > maxRank {
			maxRank = v
		}
		t.perRank[i] = 0
	}
	t.totalNS += maxRank + extraNS/float64(t.Ranks) + t.commNS()
	t.steps++
}

// Step runs one application step on the clock nowNS reads and closes it
// with a barrier: work the hooks saw is decomposed per rank; the rest of
// the clock's advance partitions perfectly.
func (t *Timer) Step(nowNS func() float64, step func()) {
	before := nowNS()
	step()
	extra := nowNS() - before - t.PendingNS()
	if extra < 0 {
		extra = 0
	}
	t.StepBarrier(extra)
}

// TotalNS returns the accumulated simulated wall time.
func (t *Timer) TotalNS() float64 { return t.totalNS }

// Steps returns the number of barriers taken.
func (t *Timer) Steps() int { return t.steps }

// PendingNS returns the kernel time accumulated since the last barrier,
// summed over ranks (useful to separate hook-tracked work from clock
// deltas).
func (t *Timer) PendingNS() float64 {
	var s float64
	for _, v := range t.perRank {
		s += v
	}
	return s
}
