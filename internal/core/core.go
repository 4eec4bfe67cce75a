// Package core implements Apollo's primary contribution: the off-line
// model-generation pipeline that turns recorded kernel samples into
// lightweight, reusable decision models for run-time tuning.
//
// The pipeline mirrors Section III-B of the paper. Training runs record
// one sample per kernel execution — a Table I feature vector plus the
// parameter values used and the measured runtime. Because each input
// problem is run once per candidate parameter value, the same feature
// vector appears under many variants; Label groups the samples by feature
// vector and labels each unique vector with the variant that achieved the
// fastest mean runtime. Train fits a CART decision tree to the labeled
// set; CrossValidate reports 10-fold accuracy (Table II); Reduce retrains
// on the top-k most important features and prunes to a depth cap, the
// lightweight configuration the paper deploys (5 features, depth 15).
package core

import (
	"fmt"
	"math"
	"strconv"

	"apollo/internal/features"
	"apollo/internal/raja"
)

// Parameter identifies which tuning parameter a model predicts.
type Parameter int

// The two tuning parameters evaluated in the paper.
const (
	// ExecutionPolicy predicts sequential vs. parallel execution.
	ExecutionPolicy Parameter = iota
	// ChunkSize predicts the OpenMP static-schedule chunk size.
	ChunkSize
)

// String names the parameter.
func (p Parameter) String() string {
	switch p {
	case ExecutionPolicy:
		return "execution_policy"
	case ChunkSize:
		return "chunk_size"
	}
	return fmt.Sprintf("parameter(%d)", int(p))
}

// NumClasses returns the number of candidate values for the parameter:
// 2 policies, or the 11 chunk sizes of the paper's training grid.
func (p Parameter) NumClasses() int {
	switch p {
	case ExecutionPolicy:
		return int(raja.NumPolicies)
	case ChunkSize:
		return len(raja.ChunkSizes)
	}
	return 0
}

// ClassName renders a class label of the parameter for reports.
func (p Parameter) ClassName(label int) string {
	switch p {
	case ExecutionPolicy:
		return raja.Policy(label).String()
	case ChunkSize:
		if label >= 0 && label < len(raja.ChunkSizes) {
			return strconv.Itoa(raja.ChunkSizes[label])
		}
	}
	return strconv.Itoa(label)
}

// Reserved column names in recorded sample frames, alongside the feature
// columns of the schema. ColWeight is optional: the number of launches a
// thinned telemetry row stands for; a frame without it weighs every row 1.
const (
	ColPolicy = "policy"
	ColChunk  = "chunk"
	ColTimeNS = "time_ns"
	ColWeight = "weight"
)

// RecordColumns returns the full column list of a recorded-sample frame
// for the given feature schema: every feature, then policy, chunk and
// time_ns.
func RecordColumns(schema *features.Schema) []string {
	cols := schema.Names()
	return append(cols, ColPolicy, ColChunk, ColTimeNS)
}

// ChunkClass maps a chunk size to its class label in raja.ChunkSizes,
// or -1 if the size is not on the training grid.
func ChunkClass(chunk int) int {
	for i, c := range raja.ChunkSizes {
		if c == chunk {
			return i
		}
	}
	return -1
}

// LabeledSet is a classification dataset: feature vectors and the label
// (fastest variant) of each.
type LabeledSet struct {
	Schema *features.Schema
	Param  Parameter
	X      [][]float64
	Y      []int
	// MeanTimes[i][c] is the mean recorded runtime (ns) of vector i
	// under class c, or NaN when unobserved. It allows the harness to
	// score predictions by runtime, not just accuracy (paper Fig. 6/7).
	MeanTimes [][]float64
	// Weights[i] is the mean number of times vector i was launched per
	// variant run, so time totals can be weighted by launch frequency.
	Weights []float64
}

// Len returns the number of labeled samples.
func (s *LabeledSet) Len() int { return len(s.X) }

// TimeOf returns the mean runtime of vector i under class: what that
// choice costs on this window. It is the one place a class indexes
// MeanTimes. A class the set has no column for, or that was never
// observed for the vector, costs the vector's worst observed time — the
// pessimistic reading, since an unobserved variant carries no evidence
// it would have been fast.
func (s *LabeledSet) TimeOf(i, class int) float64 {
	times := s.MeanTimes[i]
	if class >= 0 && class < len(times) && !math.IsNaN(times[class]) {
		return times[class]
	}
	worst := 0.0
	for _, t := range times {
		if !math.IsNaN(t) && t > worst {
			worst = t
		}
	}
	return worst
}

// weight returns vector i's launch weight; absent or non-positive counts 1.
func (s *LabeledSet) weight(i int) float64 {
	if i < len(s.Weights) && s.Weights[i] > 0 {
		return s.Weights[i]
	}
	return 1
}

// Subset returns the labeled vectors at idx, in that order; the rows are
// shared with s, and columns s lacks (MeanTimes, Weights) stay absent.
func (s *LabeledSet) Subset(idx []int) *LabeledSet {
	out := &LabeledSet{Schema: s.Schema, Param: s.Param}
	for _, i := range idx {
		out.X = append(out.X, s.X[i])
		out.Y = append(out.Y, s.Y[i])
		if i < len(s.MeanTimes) {
			out.MeanTimes = append(out.MeanTimes, s.MeanTimes[i])
		}
		if i < len(s.Weights) {
			out.Weights = append(out.Weights, s.Weights[i])
		}
	}
	return out
}

// Project returns s laid out by schema, a selection of s's features:
// every vector re-projected, labels, times and weights shared.
func (s *LabeledSet) Project(schema *features.Schema) *LabeledSet {
	out := &LabeledSet{Schema: schema, Param: s.Param, Y: s.Y, MeanTimes: s.MeanTimes, Weights: s.Weights}
	for _, x := range s.X {
		out.X = append(out.X, s.Schema.Project(x, schema))
	}
	return out
}
