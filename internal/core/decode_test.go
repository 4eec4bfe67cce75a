package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"apollo/internal/dataset"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// publishedEnvelope returns a body of the kind a trainer publishes: an
// envelope with a full lineage block around an execution-policy model
// over the 41 Table I features, whose crossover moves with the stride.
func publishedEnvelope(tb testing.TB) []byte {
	tb.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(RecordColumns(schema)...)
	ni, st := schema.Index(features.NumIndices), schema.Index(features.Stride)
	rng := dataset.NewRNG(7)
	row := make([]float64, frame.NumCols())
	for i := 0; i < 200; i++ {
		n, stride := float64(1+rng.Intn(4000)), float64(1+rng.Intn(4))
		row[ni], row[st] = n, stride
		for _, p := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row[schema.Len()] = float64(p)
			row[schema.Len()+2] = n * 10 * stride
			if p == raja.OmpParallelForExec {
				row[schema.Len()+2] = 10000 + n*10/8
			}
			frame.AddRow(row)
		}
	}
	set, err := Label(frame, schema, ExecutionPolicy)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Train(set, TrainConfig{Tree: dtree.Config{MaxDepth: 15}})
	if err != nil {
		tb.Fatal(err)
	}
	env := WrapModel("bench/loop", 7, m)
	env.Lineage = &Lineage{
		LoopID: "loop-000000000000002a", ParentVersion: 6, Trainer: "traind-1", TrainedAtNS: 1760000000123456789,
		WindowRows: 20000, HoldoutRows: 4000, SampleCounts: map[string]int{"local": 16000},
		DriftReason: "mispredict", DriftMispredict: 0.3125, DriftShift: 0.0625, DriftShiftFeature: features.NumIndices,
		DuelChampionNS: 48211.5, DuelChallengerNS: 31877.25,
	}
	body, err := env.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func BenchmarkParseModelOrEnvelope(b *testing.B) {
	body := publishedEnvelope(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseModelOrEnvelope(body); err != nil {
			b.Fatal(err)
		}
	}
}

// The wire forms encoding/json decoded model bodies into, one format at a
// time after a probe for the format: the oracle FuzzParseModelOrEnvelope
// holds the one-pass decoder to, with the checks the UnmarshalJSON methods
// made.
type (
	oracleNode struct {
		Feature   int         `json:"feature"`
		Threshold float64     `json:"threshold"`
		Label     int         `json:"label"`
		Counts    []int       `json:"counts"`
		Samples   int         `json:"samples"`
		Impurity  float64     `json:"impurity"`
		Left      *oracleNode `json:"left"`
		Right     *oracleNode `json:"right"`
	}
	oracleTree struct {
		Format       string      `json:"format"`
		NumFeatures  int         `json:"num_features"`
		NumClasses   int         `json:"num_classes"`
		FeatureNames []string    `json:"feature_names"`
		Root         *oracleNode `json:"root"`
	}
	oracleModel struct {
		Format    string      `json:"format"`
		Parameter string      `json:"parameter"`
		Features  []string    `json:"features"`
		Tree      *oracleTree `json:"tree"`
	}
	oracleEnvelope struct {
		Format     string       `json:"format"`
		Name       string       `json:"name"`
		Version    int          `json:"version"`
		SchemaHash string       `json:"schema_hash"`
		Model      *oracleModel `json:"model"`
		Lineage    *Lineage     `json:"lineage"`
	}
)

// oracleParse is ParseModelOrEnvelope as it was: a probe for the format,
// then json.Unmarshal into the format's wire structs.
func oracleParse(data []byte) (*Envelope, error) {
	var probe struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	switch probe.Format {
	case envelopeFormatID:
		var w oracleEnvelope
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, err
		}
		if w.Model == nil {
			return nil, errors.New("envelope has no model")
		}
		m, err := w.Model.build()
		if err != nil {
			return nil, err
		}
		if w.SchemaHash != "" && w.SchemaHash != m.SchemaHash() {
			return nil, errors.New("schema hash mismatch")
		}
		return &Envelope{Name: w.Name, Version: w.Version, SchemaHash: m.SchemaHash(), Model: m, Lineage: w.Lineage}, nil
	case modelFormatID:
		var w oracleModel
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, err
		}
		m, err := w.build()
		if err != nil {
			return nil, err
		}
		return WrapModel("", 0, m), nil
	}
	return nil, fmt.Errorf("unknown format %q", probe.Format)
}

func (w *oracleModel) build() (*Model, error) {
	var param Parameter
	switch {
	case w.Format != modelFormatID:
		return nil, fmt.Errorf("unknown model format %q", w.Format)
	case w.Parameter == ExecutionPolicy.String():
		param = ExecutionPolicy
	case w.Parameter == ChunkSize.String():
		param = ChunkSize
	default:
		return nil, fmt.Errorf("unknown parameter %q", w.Parameter)
	}
	if w.Tree == nil || w.Tree.Format != "apollo-dtree-v1" || w.Tree.Root == nil {
		return nil, errors.New("no tree, a tree of another format or no root")
	}
	root, err := w.Tree.Root.build(w.Tree.NumFeatures, w.Tree.NumClasses)
	if err != nil {
		return nil, err
	}
	schema, err := features.ParseSchema(w.Features)
	if err != nil {
		return nil, err
	}
	tree := &dtree.Tree{Root: root, NumFeatures: w.Tree.NumFeatures, NumClasses: w.Tree.NumClasses, FeatureNames: w.Tree.FeatureNames}
	return NewModel(param, schema, tree)
}

// build converts the node and what a walk reaches under it, checking it
// as the tree decoder did.
func (w *oracleNode) build(numFeatures, numClasses int) (*dtree.Node, error) {
	n := &dtree.Node{Feature: w.Feature, Threshold: w.Threshold, Label: w.Label, Counts: w.Counts, Samples: w.Samples, Impurity: w.Impurity}
	switch {
	case n.Feature >= numFeatures || n.Label < 0 || n.Label >= numClasses:
		return nil, errors.New("a split or a label out of range")
	case n.IsLeaf():
		return n, nil
	case w.Left == nil || w.Right == nil:
		return nil, errors.New("an internal node missing a child")
	}
	var err error
	if n.Left, err = w.Left.build(numFeatures, numClasses); err != nil {
		return nil, err
	}
	n.Right, err = w.Right.build(numFeatures, numClasses)
	return n, err
}

// deepModel is a bare model whose deepest object sits levels deep, the
// body counted: a leaf at the root, and under it a chain of left members,
// which no walk reaches.
func deepModel(levels int) []byte {
	return []byte(`{"format":"apollo-model-v1","parameter":"execution_policy","features":["num_indices"],` +
		`"tree":{"format":"apollo-dtree-v1","num_features":1,"num_classes":2,"root":{"feature":-1,"left":` +
		strings.Repeat(`{"left":`, levels-4) + `{}` + strings.Repeat("}", levels-3) + `}}`)
}

// The oracle's own edges: a tree at encoding/json's nesting limit decodes
// on both sides, one level past it on neither.
func TestDecodeAtTheNestingLimit(t *testing.T) {
	for levels, ok := range map[int]bool{10000: true, 10001: false} {
		body := deepModel(levels)
		_, got := ParseModelOrEnvelope(body)
		_, want := oracleParse(body)
		if (got == nil) != ok || (want == nil) != ok {
			t.Errorf("%d levels: decoder %v, encoding/json %v; want accepted = %v", levels, got, want, ok)
		}
	}
}

// nestedModels is an envelope whose model holds a model, and so on levels
// deep, none of them with a format, each level padded with pad bytes.
func nestedModels(levels, pad int) []byte {
	level := `{"pad":"` + strings.Repeat("x", pad) + `","model":`
	return []byte(`{"format":"apollo-model-envelope-v1","model":` +
		strings.Repeat(level, levels) + `{}` + strings.Repeat("}", levels+1))
}

// A body decodes in time linear in its length, however deep the models in
// it nest: a decoder that checked each level's bytes again, after the
// level failed, would scan this 0.9 MB body some 5 000 times.
func TestDecodeNestedModelsInLinearTime(t *testing.T) {
	body := nestedModels(9990, 80)
	start := time.Now()
	for i := 0; i < 4; i++ {
		json.Valid(body)
	}
	scan := time.Since(start) / 4
	start = time.Now()
	if _, err := ParseModelOrEnvelope(body); err == nil {
		t.Fatal("decoded an envelope whose model has no format")
	}
	if took, limit := time.Since(start), 100*scan+time.Second/2; took > limit {
		t.Fatalf("decoding %d bytes took %v, over %v (one json.Valid scan takes %v)", len(body), took, limit, scan)
	}
}
