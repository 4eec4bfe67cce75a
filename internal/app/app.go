// Package app defines the interface the experiment harness uses to drive
// the three proxy applications uniformly.
package app

import (
	"apollo/internal/caliper"
	"apollo/internal/raja"
)

// Config parameterizes one application run.
type Config struct {
	// Ctx is the RAJA execution context (team/clock/hooks/defaults).
	Ctx *raja.Context
	// Ann is the caliper blackboard the application annotates and the
	// recorder reads.
	Ann *caliper.Annotations
	// Problem names the input deck.
	Problem string
	// Size is the global problem size (cells per side).
	Size int
	// Ranks, when > 1, partitions work across simulated MPI ranks
	// (patches carry rank ownership; kernels annotate their rank).
	Ranks int
}

// Sim is a running application instance.
type Sim interface {
	// Step advances one timestep, launching every kernel through the
	// configured context.
	Step()
	// Cycle returns the number of completed timesteps.
	Cycle() int
	// Time returns the simulated physical time.
	Time() float64
}

// Descriptor describes an application to the harness.
type Descriptor struct {
	// Name is the application name ("LULESH", "CleverLeaf", "ARES").
	Name string
	// Short is the single-letter tag used in the paper's Table III.
	Short string
	// Problems are the input decks the paper runs in this application.
	Problems []string
	// TrainSizes are the global problem sizes used for training runs.
	TrainSizes []int
	// Steps is the number of timesteps per training run.
	Steps int
	// DefaultParams is the application's static default configuration
	// (OpenMP everywhere for LULESH and CleverLeaf).
	DefaultParams raja.Params
	// NewDefaultHooks, when non-nil, builds the application's
	// hand-assigned per-kernel static policies (ARES's developer
	// defaults). Nil means DefaultParams applies to every kernel. A pin
	// belongs in the context's Default; this stays a raja.Hooks only
	// because the repository benchmark installs it as one.
	NewDefaultHooks func() raja.Hooks
	// New creates a run.
	New func(cfg Config) (Sim, error)
}
