// Package search implements an empirical on-line auto-tuning baseline in
// the style of ActiveHarmony (paper Table IV): for every kernel it
// measures each candidate parameter assignment in turn, then greedily
// exploits the fastest, optionally re-exploring on a fixed period to
// track slowly drifting applications.
//
// The baseline exists to reproduce the paper's central contrast: an
// empirical searcher must *execute* every candidate (paying for the slow
// ones) and converges per kernel, not per input, so it cannot follow
// input-dependent behaviour that changes launch to launch — exactly what
// Apollo's pre-trained classifiers handle with a few comparisons.
package search

import (
	"sync"

	"apollo/internal/raja"
)

// Config controls the on-line search.
type Config struct {
	// Candidates is the parameter space to search. DefaultCandidates is
	// used when empty.
	Candidates []raja.Params
	// TrialsPerCandidate is how many measurements each candidate gets
	// before the searcher commits (default 3).
	TrialsPerCandidate int
	// ReexploreEvery restarts exploration after this many exploitation
	// launches (0 disables re-exploration).
	ReexploreEvery int
}

// DefaultCandidates returns the paper's training grid as a search space:
// sequential, plus parallel with each chunk size (and the default chunk).
func DefaultCandidates() []raja.Params {
	cands := []raja.Params{
		{Policy: raja.SeqExec},
		{Policy: raja.OmpParallelForExec, Chunk: raja.DefaultChunk},
	}
	for _, c := range raja.ChunkSizes {
		cands = append(cands, raja.Params{Policy: raja.OmpParallelForExec, Chunk: c})
	}
	return cands
}

type phase int

const (
	exploring phase = iota
	exploiting
)

// state is the per-kernel search state machine.
type state struct {
	phase     phase
	candidate int       // index currently being measured
	trial     int       // measurements taken of the current candidate
	sums      []float64 // total time per candidate
	counts    []int
	best      raja.Params
	exploits  int
}

// OnlineSearch is a raja.Hooks implementation performing per-kernel
// empirical search.
type OnlineSearch struct {
	cfg Config

	mu      sync.Mutex
	kernels map[uint64]*state

	explorationNS float64
}

// New returns an on-line search tuner with the given configuration.
func New(cfg Config) *OnlineSearch {
	if len(cfg.Candidates) == 0 {
		cfg.Candidates = DefaultCandidates()
	}
	if cfg.TrialsPerCandidate <= 0 {
		cfg.TrialsPerCandidate = 3
	}
	return &OnlineSearch{cfg: cfg, kernels: make(map[uint64]*state)}
}

func (s *OnlineSearch) stateFor(id uint64) *state {
	st := s.kernels[id]
	if st == nil {
		st = &state{
			sums:   make([]float64, len(s.cfg.Candidates)),
			counts: make([]int, len(s.cfg.Candidates)),
		}
		s.kernels[id] = st
	}
	return st
}

// Begin selects the next parameters for the kernel per its search state.
func (s *OnlineSearch) Begin(k *raja.Kernel, iset *raja.IndexSet) (raja.Params, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stateFor(k.ID)
	switch st.phase {
	case exploring:
		return s.cfg.Candidates[st.candidate], true
	default:
		return st.best, true
	}
}

// End feeds the measurement back into the search state machine.
func (s *OnlineSearch) End(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stateFor(k.ID)
	switch st.phase {
	case exploring:
		s.explorationNS += elapsedNS
		st.sums[st.candidate] += elapsedNS
		st.counts[st.candidate]++
		st.trial++
		if st.trial >= s.cfg.TrialsPerCandidate {
			st.trial = 0
			st.candidate++
			if st.candidate >= len(s.cfg.Candidates) {
				st.commit(s.cfg.Candidates)
			}
		}
	case exploiting:
		st.exploits++
		if s.cfg.ReexploreEvery > 0 && st.exploits >= s.cfg.ReexploreEvery {
			st.restart()
		}
	}
}

// commit moves the state to exploitation of the fastest measured candidate.
func (st *state) commit(candidates []raja.Params) {
	bestIdx, bestMean := 0, -1.0
	for i, n := range st.counts {
		if n == 0 {
			continue
		}
		mean := st.sums[i] / float64(n)
		if bestMean < 0 || mean < bestMean {
			bestIdx, bestMean = i, mean
		}
	}
	st.best = candidates[bestIdx]
	st.phase = exploiting
	st.exploits = 0
}

// restart clears measurements and re-enters exploration.
func (st *state) restart() {
	st.phase = exploring
	st.candidate = 0
	st.trial = 0
	for i := range st.sums {
		st.sums[i] = 0
		st.counts[i] = 0
	}
}

// Converged reports whether the kernel with the given ID has finished
// exploring.
func (s *OnlineSearch) Converged(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.kernels[id]
	return ok && st.phase == exploiting
}

// ExplorationNS returns the total time spent executing exploration trials
// — the search overhead Apollo avoids.
func (s *OnlineSearch) ExplorationNS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.explorationNS
}

// TrialsToConverge returns the number of launches a kernel needs before
// the searcher commits: candidates × trials.
func (s *OnlineSearch) TrialsToConverge() int {
	return len(s.cfg.Candidates) * s.cfg.TrialsPerCandidate
}
