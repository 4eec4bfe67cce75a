package flight

import (
	"fmt"

	"apollo/internal/dtree"
)

// CaptureFormatID identifies the flight-capture JSON format.
const CaptureFormatID = "apollo-flight-v1"

// Capture is the JSON form of a recorder snapshot: the retained records,
// each with the explained path of its decision. It is what
// /debug/apollo/flight serves and apollo-inspect flight consumes.
type Capture struct {
	Format  string          `json:"format"`
	Emitted uint64          `json:"emitted"`
	Dropped uint64          `json:"dropped"`
	Records []CaptureRecord `json:"records"`
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
	// Path is the record's offset trails explained against the decoder
	// they were written under, policy steps first; absent when that
	// decoder has since been replaced (or the launch ran no model).
	Path []string `json:"path,omitempty"`
}

// Capture snapshots the recorder into its JSON form.
func (r *Recorder) Capture() *Capture {
	recs := r.Snapshot()
	dec := r.Decoder()
	c := &Capture{
		Format:  CaptureFormatID,
		Emitted: r.Emitted(),
		Dropped: r.Dropped(),
		Records: make([]CaptureRecord, 0, len(recs)),
	}
	for i := range recs {
		c.Records = append(c.Records, r.captureRecord(&recs[i], dec))
	}
	return c
}

func (r *Recorder) captureRecord(rec *Record, dec *TrailDecoder) CaptureRecord {
	out := CaptureRecord{
		Seq:         rec.Seq,
		TimeNS:      rec.TimeNS,
		Site:        rec.SiteName(),
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
	if dec != nil && rec.DecoderGen == dec.gen && len(first)+len(second) > 0 {
		out.Path = dec.explain(first, second, rec.Features[:nf], r.featureNames)
	}
	return out
}

// explain decodes a record's two trails (either may be empty) against
// the decoder's trees into one explained path, policy steps first.
// features is the record's source-layout snapshot.
func (d *TrailDecoder) explain(first, second []int32, features []float64, names []string) []string {
	var steps [2 * MaxTrail]dtree.TrailStep
	n := 0
	if d.Tree != nil {
		n = d.Tree.DecodeOffsets(first, d.Src, features, steps[:MaxTrail])
	}
	if d.ChunkTree != nil {
		n += d.ChunkTree.DecodeOffsets(second, d.ChunkSrc, features, steps[n:n+MaxTrail])
	}
	return explainTrail(steps[:n], names)
}

// featureName names feature index i, falling back to the positional
// "x[i]" form when the name table does not cover it.
func featureName(names []string, i int) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("x[%d]", i)
}

// explainTrail renders a decision trail as one human-readable line per
// split, in the style of the paper's Fig. 4 model listing:
//
//	num_indices (=16) <= 96 → left
//	trip_count (=4096) > 256 → right
//
// A step whose feature index is -1 consulted a model feature the source
// schema lacks (projected as zero).
func explainTrail(trail []dtree.TrailStep, names []string) []string {
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
