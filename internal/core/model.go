package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"

	"apollo/internal/ctree"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// Model is a trained, reusable tuning model: a decision tree over a
// feature schema, predicting one tuning parameter. Models serialize to
// JSON and load at runtime without recompiling the application.
//
// This package is the model boundary: every Model that Train, Reduce,
// the JSON decoders or NewModel hand out has been validated against its
// own header and carries its compiled tree (Compiled). Consumers — the
// registry, the serving client, projectors — read that one compiled
// tree and never re-check or re-compile. A Model is immutable once
// built; a struct literal bypasses the boundary and has no compiled
// tree.
type Model struct {
	Param  Parameter
	Schema *features.Schema
	Tree   *dtree.Tree

	ct *ctree.Tree // set by NewModel, never nil on a model built through it
}

// NewModel validates tree against the header it is published under and
// compiles it. It rejects what no walk may ever see: a tree whose width
// differs from the schema's (a split could index past the vector), a
// structure ctree.Compile refuses (missing child, negative label,
// feature out of range), and a leaf label outside the parameter's
// classes (raja.PolicySwitcher panics on an unknown policy).
func NewModel(param Parameter, schema *features.Schema, tree *dtree.Tree) (*Model, error) {
	if schema == nil || tree == nil {
		return nil, fmt.Errorf("core: model needs a schema and a tree")
	}
	ct, err := ctree.Compile(tree)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The compiled width, not tree.NumFeatures: Compile widens an
	// undeclared (zero) width to cover the splits it found.
	if ct.NumFeatures() != schema.Len() {
		return nil, fmt.Errorf("core: tree takes %d features but the model header names %d",
			ct.NumFeatures(), schema.Len())
	}
	if max := maxLeafLabel(tree.Root); max >= param.NumClasses() {
		return nil, fmt.Errorf("core: tree predicts class %d but %v has %d classes",
			max, param, param.NumClasses())
	}
	return &Model{Param: param, Schema: schema, Tree: tree, ct: ct}, nil
}

// maxLeafLabel returns the largest label a walk of n can return. The
// structure has been through ctree.Compile, so internal nodes have both
// children.
func maxLeafLabel(n *dtree.Node) int {
	if n.IsLeaf() {
		return n.Label
	}
	l, r := maxLeafLabel(n.Left), maxLeafLabel(n.Right)
	if l > r {
		return l
	}
	return r
}

// TrainConfig controls model training.
type TrainConfig struct {
	// Tree configures the underlying CART induction.
	Tree dtree.Config
}

// Train fits a decision-tree model to a labeled set.
func Train(set *LabeledSet, cfg TrainConfig) (*Model, error) {
	cfg.Tree.FeatureNames = set.Schema.Names()
	tree, err := dtree.Train(set.X, set.Y, set.Param.NumClasses(), cfg.Tree)
	if err != nil {
		return nil, err
	}
	return NewModel(set.Param, set.Schema, tree)
}

// Predict returns the predicted class for a feature vector laid out by the
// model's own schema. It is the interpreted reference walk: the
// benchmark's predict oracle, apollo-inspect models -verify and the
// differential tests compare the compiled walk against it. No serving
// path calls it — they walk Compiled.
func (m *Model) Predict(x []float64) int { return m.Tree.Predict(x) }

// Compiled returns the tree flattened when the model was built (see
// package ctree): the one compiled form every consumer walks.
func (m *Model) Compiled() *ctree.Tree { return m.ct }

// Compile flattens the model's tree afresh. Consumers want Compiled;
// this is what a measurement of the compiler itself calls.
func (m *Model) Compile() (*ctree.Tree, error) { return ctree.Compile(m.Tree) }

// Params converts a predicted class into execution parameters, merging it
// into base (so a policy model leaves the chunk choice alone and vice
// versa). This is the model_params blackboard write of the paper.
func (m *Model) Params(class int, base raja.Params) raja.Params {
	switch m.Param {
	case ExecutionPolicy:
		base.Policy = raja.Policy(class)
	case ChunkSize:
		if class >= 0 && class < len(raja.ChunkSizes) {
			base.Chunk = raja.ChunkSizes[class]
		}
	}
	return base
}

// Projector maps feature vectors laid out by a source schema (typically
// the full Table I schema the recorder uses) into the model's schema. The
// mapping is precomputed so the per-launch cost is a few slice reads.
type Projector struct {
	src  []int32 // model feature i reads source[src[i]]; -1 reads 0
	ct   *ctree.Tree
	pool sync.Pool
}

// NewProjector builds a projector from the source schema onto the
// model's compiled tree. It panics on a model that did not come through
// the model boundary (a struct literal): that is a bug in the caller,
// and it must surface here, not inside an application's launch.
func (m *Model) NewProjector(source *features.Schema) *Projector {
	ct := m.Compiled()
	if ct == nil {
		panic("core: NewProjector on a model not built by Train, a decoder or NewModel")
	}
	p := &Projector{ct: ct, src: make([]int32, m.Schema.Len())}
	for i, name := range m.Schema.Names() {
		p.src[i] = int32(source.Index(name))
	}
	p.pool.New = func() any {
		buf := make([]float64, len(p.src))
		return &buf
	}
	return p
}

// Compiled returns the compiled tree the projector walks — the model's
// own (Model.Compiled), shared by every projector built on it.
func (p *Projector) Compiled() *ctree.Tree { return p.ct }

// SourceIndex returns the model→source feature index mapping (-1 for
// model features the source lacks) in the form ctree.DecodeOffsets
// takes. Callers must not mutate it.
func (p *Projector) SourceIndex() []int32 { return p.src }

// project lays source out in the model's schema in a pooled scratch
// buffer; the caller returns it to the pool when done. Pooling keeps the
// projector allocation-free in steady state and safe for concurrent
// callers — the tuner evaluates one shared projector from many goroutine
// contexts at once.
//
//apollo:hotpath
func (p *Projector) project(source []float64) *[]float64 {
	bufp := p.pool.Get().(*[]float64)
	buf := *bufp
	for i, j := range p.src {
		if j >= 0 {
			buf[i] = source[j]
		} else {
			buf[i] = 0
		}
	}
	return bufp
}

// Predict projects the source-layout vector and evaluates the model.
func (p *Projector) Predict(source []float64) int {
	bufp := p.project(source)
	class := p.ct.Predict(*bufp)
	p.pool.Put(bufp)
	return class
}

// PredictOffsets is Predict with decision provenance in the compact
// flight-recorder encoding: visited node offsets of the compiled tree
// (see ctree.PredictOffsets), which decode against Compiled's layout
// with SourceIndex as the feature mapping.
//
//apollo:hotpath
func (p *Projector) PredictOffsets(source []float64, offs []int32) (class, n int) {
	bufp := p.project(source)
	class, n = p.ct.PredictOffsets(*bufp, offs)
	p.pool.Put(bufp)
	return class, n
}

// FeatureRanking returns the model's features ordered by decreasing Gini
// importance, with their normalized importances (paper Fig. 8).
func (m *Model) FeatureRanking() ([]string, []float64) {
	imp := m.Tree.Importances()
	names := m.Schema.Names()
	order := make([]int, len(imp))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return imp[order[a]] > imp[order[b]] })
	rankedNames := make([]string, len(order))
	rankedImp := make([]float64, len(order))
	for k, i := range order {
		rankedNames[k] = names[i]
		rankedImp[k] = imp[i]
	}
	return rankedNames, rankedImp
}

// Reduce retrains the model on its top-k most important features and
// prunes the result to maxDepth (0 leaves depth unlimited). This produces
// the paper's lightweight deployment configuration (Section IV-B: top 5
// features, depth 15).
func (m *Model) Reduce(set *LabeledSet, topK, maxDepth int, cfg TrainConfig) (*Model, error) {
	names, _ := m.FeatureRanking()
	if topK > len(names) {
		topK = len(names)
	}
	cfg.Tree.MaxDepth = maxDepth
	return Train(set.Project(set.Schema.Select(names[:topK]...)), cfg)
}

// modelJSON is the on-disk form of a Model.
type modelJSON struct {
	Format    string      `json:"format"`
	Parameter string      `json:"parameter"`
	Features  []string    `json:"features"`
	Tree      *dtree.Tree `json:"tree"`
}

const modelFormatID = "apollo-model-v1"

// MarshalJSON encodes the model.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{
		Format:    modelFormatID,
		Parameter: m.Param.String(),
		Features:  m.Schema.Names(),
		Tree:      m.Tree,
	})
}

// UnmarshalJSON decodes a model (decodeBody) and passes it through
// NewModel, so a body whose tree contradicts its header is a decode
// error — at every door that parses model bytes (LoadModel,
// ParseModelOrEnvelope, and through it PUT /models, the registry watcher
// and client.Fetch).
func (m *Model) UnmarshalJSON(data []byte) error {
	e, err := decodeBody(data, modelFormatID)
	if err == nil {
		*m = *e.Model
	}
	return err
}

// Save writes the model to the named file as indented JSON.
func (m *Model) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadModel reads a model from the named JSON file.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Model
	if err := m.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("core: loading %s: %w", path, err)
	}
	return &m, nil
}

// SchemaHash fingerprints the model's prediction contract: the format
// identifier, the predicted parameter, and the ordered feature names.
// Two models with equal hashes accept the same feature vectors and emit
// classes of the same parameter, so a serving registry can verify that a
// republished model is a drop-in replacement for its predecessor.
func (m *Model) SchemaHash() string {
	h := fnv.New64a()
	h.Write([]byte(modelFormatID))
	h.Write([]byte{0})
	h.Write([]byte(m.Param.String()))
	for _, name := range m.Schema.Names() {
		h.Write([]byte{0})
		h.Write([]byte(name))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TableISchemaHash is the golden fingerprint of the Table I feature
// schema: features.Fingerprint over the kernel, instruction-mix, and
// application feature names in vector order.
// features.TestTableIFingerprintMatchesGolden recomputes it from the
// live schema in tier-1 and fails on mismatch, so renaming or reordering
// a feature — which silently shifts every deployed model's vector
// layout — cannot land without deliberately bumping this constant
// together with a model format version change.
const TableISchemaHash uint64 = 0x512005e953bd06e6

// Envelope is the stable, versioned wire and disk form of a published
// model: the name it is registered under, its monotonic registry version,
// and the schema hash, wrapped around the model JSON. The envelope is
// what the model service stores and serves; a bare model JSON (as written
// by Model.Save) is also accepted everywhere an envelope is, at version 0.
type Envelope struct {
	Name       string
	Version    int
	SchemaHash string
	Model      *Model
	Lineage    *Lineage
}

// Lineage is the optional provenance block stamped into an envelope at
// train/publish time: which version the model grew out of, what
// telemetry window trained it, which drift signal fired, how the
// champion/challenger duel went, and who trained it. The loop ID
// correlates the envelope with the looptrace events of the retrain
// cycle that produced it, so journals from N processes stitch into one
// causal timeline. Every field is optional — hand-published and legacy
// envelopes simply have no lineage — and the whole block marshals
// deterministically (the sample-count map is sorted by encoding/json),
// which preserves the registry's ETag-convergence invariant.
type Lineage struct {
	LoopID        string `json:"loop_id,omitempty"`
	ParentVersion int    `json:"parent_version,omitempty"`
	Trainer       string `json:"trainer,omitempty"`
	TrainedAtNS   int64  `json:"trained_at_unix_ns,omitempty"`

	// Training window: total rows and per-source sample counts. The
	// counts come in two units: a trainer over one spool stamps
	// {"local": the labeled training vectors}, one over a fleet's spools
	// stamps each replica spool's rows ever read — spool rows, not
	// vectors, and not only this window's.
	WindowRows   int            `json:"window_rows,omitempty"`
	HoldoutRows  int            `json:"holdout_rows,omitempty"`
	SampleCounts map[string]int `json:"sample_counts,omitempty"`

	// Drift trigger snapshot (empty reason for a bootstrap publish).
	DriftReason       string  `json:"drift_reason,omitempty"`
	DriftMispredict   float64 `json:"drift_mispredict,omitempty"`
	DriftShift        float64 `json:"drift_shift,omitempty"`
	DriftShiftFeature string  `json:"drift_shift_feature,omitempty"`

	// Champion/challenger duel outcome on the holdout (mean predicted
	// launch cost in ns; zero champion cost for a bootstrap publish).
	DuelChampionNS   float64 `json:"duel_champion_ns,omitempty"`
	DuelChallengerNS float64 `json:"duel_challenger_ns,omitempty"`
}

const envelopeFormatID = "apollo-model-envelope-v1"

// envelopeJSON is the on-disk/wire form of an Envelope. Lineage is a
// trailing optional field: decoders that predate it ignore it, and
// envelopes without it marshal byte-identically to the pre-lineage
// format.
type envelopeJSON struct {
	Format     string   `json:"format"`
	Name       string   `json:"name"`
	Version    int      `json:"version"`
	SchemaHash string   `json:"schema_hash"`
	Model      *Model   `json:"model"`
	Lineage    *Lineage `json:"lineage,omitempty"`
}

// WrapModel builds the envelope for a model published under name at the
// given version, stamping the schema hash.
func WrapModel(name string, version int, m *Model) *Envelope {
	return &Envelope{Name: name, Version: version, SchemaHash: m.SchemaHash(), Model: m}
}

// MarshalJSON encodes the envelope.
func (e *Envelope) MarshalJSON() ([]byte, error) {
	hash := e.SchemaHash
	if hash == "" && e.Model != nil {
		hash = e.Model.SchemaHash()
	}
	return json.Marshal(envelopeJSON{
		Format:     envelopeFormatID,
		Name:       e.Name,
		Version:    e.Version,
		SchemaHash: hash,
		Model:      e.Model,
		Lineage:    e.Lineage,
	})
}

// UnmarshalJSON decodes an envelope (decodeBody), verifying the format
// identifier and that the recorded schema hash matches the enclosed model.
func (e *Envelope) UnmarshalJSON(data []byte) error {
	d, err := decodeBody(data, envelopeFormatID)
	if err == nil {
		*e = *d
	}
	return err
}

// ParseModelOrEnvelope decodes data as either an envelope or a bare model
// JSON (Model.Save output), by its format field. Bare models come back
// wrapped at version 0 with an empty name.
func ParseModelOrEnvelope(data []byte) (*Envelope, error) { return decodeBody(data, "") }

// The decode forms of the two formats, which encoding/json fills in one
// pass, the tree with the rest (dtree.Wire): no member is decoded twice.
// A body of either format decodes into a wireBody, whose format member is
// the bare model's.
type (
	wireModel struct {
		Format    string      `json:"format"`
		Parameter string      `json:"parameter"`
		Features  []string    `json:"features"`
		Tree      *dtree.Wire `json:"tree"`
	}
	wireEnvelope struct {
		Name       string     `json:"name"`
		Version    int        `json:"version"`
		SchemaHash string     `json:"schema_hash"`
		Model      *wireModel `json:"model"`
		Lineage    *Lineage   `json:"lineage"`
	}
	wireBody struct {
		wireModel
		wireEnvelope
	}
)

// decodeBody decodes a bare model or an envelope, whichever its format
// names (want, if set, is the one format taken), reading the format in the
// same encoding/json pass as the members. It accepts what json.Unmarshal
// into the format's own struct accepts.
func decodeBody(data []byte, want string) (*Envelope, error) {
	var w wireBody
	err := json.Unmarshal(data, &w)
	if err != nil && (w.Format == modelFormatID || w.Format == envelopeFormatID) {
		// The error may be in a member of the other format, which this
		// one does not have: decode the format and its own members alone.
		format := w.Format
		w = wireBody{}
		if format == modelFormatID {
			err = json.Unmarshal(data, &w.wireModel)
		} else {
			var env struct {
				Format string `json:"format"`
				wireEnvelope
			}
			err = json.Unmarshal(data, &env)
			w.Format, w.wireEnvelope = env.Format, env.wireEnvelope
		}
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("core: not a model or envelope: %w", err)
	case want != "" && w.Format != want:
		return nil, fmt.Errorf("core: unknown format %q (want %q)", w.Format, want)
	case w.Format == envelopeFormatID:
		return w.wireEnvelope.build()
	case w.Format != modelFormatID:
		return nil, fmt.Errorf("core: unknown format %q", w.Format)
	}
	m, err := w.wireModel.build()
	if err != nil {
		return nil, err
	}
	return WrapModel("", 0, m), nil
}

// build checks the decoded envelope and makes it.
func (w *wireEnvelope) build() (*Envelope, error) {
	if w.Model == nil {
		return nil, fmt.Errorf("core: envelope has no model")
	}
	if w.Model.Format != modelFormatID {
		return nil, fmt.Errorf("core: unknown model format %q (want %q)", w.Model.Format, modelFormatID)
	}
	m, err := w.Model.build()
	if err != nil {
		return nil, err
	}
	hash := m.SchemaHash()
	if w.SchemaHash != "" && w.SchemaHash != hash {
		return nil, fmt.Errorf("core: envelope schema hash %s does not match model %s", w.SchemaHash, hash)
	}
	return &Envelope{Name: w.Name, Version: w.Version, SchemaHash: hash, Model: m, Lineage: w.Lineage}, nil
}

// build checks the decoded model and makes it (its format is the
// caller's to check).
func (w *wireModel) build() (*Model, error) {
	param := ExecutionPolicy
	if w.Parameter == ChunkSize.String() {
		param = ChunkSize
	} else if w.Parameter != param.String() {
		return nil, fmt.Errorf("core: unknown parameter %q", w.Parameter)
	}
	if w.Tree == nil {
		return nil, fmt.Errorf("core: model has no tree")
	}
	tree, err := w.Tree.Tree()
	if err != nil {
		return nil, err
	}
	schema, err := features.ParseSchema(w.Features)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewModel(param, schema, tree)
}
