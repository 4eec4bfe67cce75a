package flight

import (
	"fmt"
	"sort"

	"apollo/internal/ctree"
	"apollo/internal/dtree"
)

// CaptureFormatID identifies the flight-capture JSON format.
const CaptureFormatID = "apollo-flight-v1"

// Capture is the JSON form of a recorder snapshot: the site table plus
// the retained records with human-readable decision-path explanations.
// It is what /debug/apollo/flight serves and apollo-inspect flight
// consumes.
type Capture struct {
	Format  string          `json:"format"`
	Emitted uint64          `json:"emitted"`
	Dropped uint64          `json:"dropped"`
	Sites   []CaptureSite   `json:"sites"`
	Records []CaptureRecord `json:"records"`
}

// CaptureSite is one registered decision site. Sites with a registered
// TrailDecoder embed the compiled-tree layouts and feature mappings, so
// an offline consumer (apollo-inspect flight) can decode offset trails
// from the records without the original models: CTree/Src for the first
// (policy) trail, ChunkCTree/ChunkSrc for the second.
type CaptureSite struct {
	ID         string        `json:"id"`
	Name       string        `json:"name"`
	Features   []string      `json:"features,omitempty"`
	CTree      *ctree.Layout `json:"ctree,omitempty"`
	Src        []int32       `json:"src,omitempty"`
	ChunkCTree *ctree.Layout `json:"chunk_ctree,omitempty"`
	ChunkSrc   []int32       `json:"chunk_src,omitempty"`
}

// CaptureRecord is one decision in a Capture.
type CaptureRecord struct {
	Seq         uint64             `json:"seq"`
	TimeNS      int64              `json:"time_ns"`
	Site        string             `json:"site"`
	SiteID      string             `json:"site_id"`
	Iterations  int64              `json:"iterations,omitempty"`
	Policy      int                `json:"policy"`
	Chunk       int                `json:"chunk,omitempty"`
	Predicted   int                `json:"predicted"`
	Explored    bool               `json:"explored,omitempty"`
	PredictedNS float64            `json:"predicted_ns"`
	ObservedNS  float64            `json:"observed_ns"`
	FeatureNS   float64            `json:"feature_ns,omitempty"`
	ModelNS     float64            `json:"model_ns,omitempty"`
	Features    map[string]float64 `json:"features,omitempty"`
	Path        []string           `json:"path,omitempty"`
	// TrailOffsets and ChunkTrailOffsets are the record's raw offset
	// trails (Path above is their decoded rendering, policy steps first,
	// when the site's decoder was available at capture time).
	TrailOffsets      []int32 `json:"trail_offsets,omitempty"`
	ChunkTrailOffsets []int32 `json:"chunk_trail_offsets,omitempty"`
}

// Capture snapshots the recorder into its JSON form.
func (r *Recorder) Capture() *Capture {
	recs := r.Snapshot()
	c := &Capture{
		Format:  CaptureFormatID,
		Emitted: r.Emitted(),
		Dropped: r.Dropped(),
		Sites:   []CaptureSite{},
		Records: make([]CaptureRecord, 0, len(recs)),
	}
	for id, s := range *r.sites.Load() {
		cs := CaptureSite{ID: fmt.Sprintf("%#x", id), Name: s.name, Features: r.featureNames}
		if d := s.dec.Load(); d != nil {
			if d.Tree != nil {
				cs.CTree, cs.Src = d.Tree.Layout(), d.Src
			}
			if d.ChunkTree != nil {
				cs.ChunkCTree, cs.ChunkSrc = d.ChunkTree.Layout(), d.ChunkSrc
			}
		}
		c.Sites = append(c.Sites, cs)
	}
	sort.Slice(c.Sites, func(i, j int) bool { return c.Sites[i].ID < c.Sites[j].ID })
	for i := range recs {
		c.Records = append(c.Records, r.captureRecord(&recs[i]))
	}
	return c
}

func (r *Recorder) captureRecord(rec *Record) CaptureRecord {
	siteName := ""
	var dec *TrailDecoder
	if s := r.Site(rec.Site); s != nil {
		siteName, dec = s.name, s.dec.Load()
	}
	out := CaptureRecord{
		Seq:         rec.Seq,
		TimeNS:      rec.TimeNS,
		Site:        siteName,
		SiteID:      fmt.Sprintf("%#x", rec.Site),
		Iterations:  rec.Iterations,
		Policy:      int(rec.Policy),
		Chunk:       int(rec.Chunk),
		Predicted:   int(rec.Predicted),
		Explored:    rec.Explored,
		PredictedNS: rec.PredictedNS,
		ObservedNS:  rec.ObservedNS,
		FeatureNS:   rec.FeatureNS,
		ModelNS:     rec.ModelNS,
	}
	nf := min(max(int(rec.NumFeatures), 0), MaxFeatures)
	if nf > 0 {
		out.Features = make(map[string]float64, nf)
		for i := 0; i < nf; i++ {
			out.Features[featureName(r.featureNames, i)] = rec.Features[i]
		}
	}
	first, second := rec.Trails()
	out.TrailOffsets = append([]int32(nil), first...)
	out.ChunkTrailOffsets = append([]int32(nil), second...)
	if dec != nil && len(first)+len(second) > 0 {
		out.Path = dec.Explain(first, second, rec.Features[:nf], r.featureNames)
	}
	return out
}

// Decoder rebuilds the site's TrailDecoder from its embedded layouts. A
// missing, foreign or corrupt layout leaves its tree nil (that trail
// stays raw offsets); the result is nil when neither yields a tree.
func (s *CaptureSite) Decoder() *TrailDecoder {
	d := &TrailDecoder{Src: s.Src, ChunkSrc: s.ChunkSrc}
	if t, err := ctree.FromLayout(s.CTree); err == nil {
		d.Tree = t
	}
	if t, err := ctree.FromLayout(s.ChunkCTree); err == nil {
		d.ChunkTree = t
	}
	if d.Tree == nil && d.ChunkTree == nil {
		return nil
	}
	return d
}

// Explain is the one offset→path decoder (Capture renders live records
// through it, apollo-inspect flight raw captures offline): it decodes a
// record's two trails (either may be empty) against the decoder's trees
// into one explained path, policy steps first. features is the record's
// source-layout snapshot, NaN where the caller could not recover a value.
func (d *TrailDecoder) Explain(first, second []int32, features []float64, names []string) []string {
	var steps [2 * MaxTrail]dtree.TrailStep
	n := 0
	if d.Tree != nil {
		n = d.Tree.DecodeOffsets(first, d.Src, features, steps[:MaxTrail])
	}
	if d.ChunkTree != nil {
		n += d.ChunkTree.DecodeOffsets(second, d.ChunkSrc, features, steps[n:n+MaxTrail])
	}
	return ExplainTrail(steps[:n], names)
}

// featureName names feature index i, falling back to the positional
// "x[i]" form when the name table does not cover it.
func featureName(names []string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("x[%d]", i)
}

// ExplainTrail renders a decision trail as one human-readable line per
// split, in the style of the paper's Fig. 4 model listing:
//
//	num_indices (=16) <= 96 → left
//	trip_count (=4096) > 256 → right
//
// A step whose feature index is -1 consulted a model feature the source
// schema lacks (projected as zero).
func ExplainTrail(trail []dtree.TrailStep, names []string) []string {
	out := make([]string, len(trail))
	for i, st := range trail {
		name := "(absent feature)"
		if st.Feature >= 0 {
			name = featureName(names, int(st.Feature))
		}
		if st.Right {
			out[i] = fmt.Sprintf("%s (=%g) > %g → right", name, st.Value, st.Threshold)
		} else {
			out[i] = fmt.Sprintf("%s (=%g) <= %g → left", name, st.Value, st.Threshold)
		}
	}
	return out
}
