// Package flight is Apollo's always-on decision flight recorder: a
// lock-free, fixed-memory ring of decision-provenance records that every
// tuned kernel launch can write to at hot-path cost (tens of
// nanoseconds, zero allocations) and that live debug endpoints read
// without stopping the writers.
//
// Its one producer is the tuner (tuner.Tuner.End): a decision is made at
// the kernel launch, so that is where it is recorded. Each record
// captures one decision end to end: which launch site decided, the
// feature snapshot the model saw, the root-to-leaf trail through the
// decision tree (feature, threshold, direction at each split), the
// chosen parameters, the runtime the tuner predicted from past
// launches of that choice versus the runtime actually observed, and
// how the decision's own overhead broke down into feature extraction,
// model evaluation, and execution.
//
// The write side is //apollo:hotpath-clean and wait-free in steady
// state; see Recorder for the protocol. The read side (Snapshot,
// Capture) is a cold-path drain that never blocks writers for more than
// one in-flight record write.
package flight

const (
	// MaxFeatures is the widest feature snapshot a record can hold.
	// Table I is 41 features; the headroom lets applications with a few
	// extra custom features still record full snapshots. Wider vectors
	// are truncated, never dropped.
	MaxFeatures = 48

	// MaxTrail is the deepest decision trail a record can hold per model.
	// The paper's deployed models are pruned to depth 15, so 24 keeps even
	// generous trees fully explained; deeper paths keep walking but stop
	// recording.
	MaxTrail = 24

	// MaxOffsets sizes one offset trail: one internal-node offset per
	// level plus the terminal leaf reference.
	MaxOffsets = MaxTrail + 1

	// MaxSiteName is the longest site name a record carries inline;
	// longer names are truncated to it (every kernel the bundled
	// applications launch has a shorter name).
	MaxSiteName = 64
)

// Record is one decision's provenance. It is a fixed-size, pointer-free
// value (744 bytes) so a ring of them is a single allocation and writers
// fill slots in place without touching the garbage collector. The site's
// name rides inline, as looptrace.Event carries its strings, so the
// recorder keeps no per-site table.
//
// Fields beyond NumFeatures in Features, beyond OffsetsLen in Offsets and
// beyond the name's length in its array are stale leftovers from earlier
// occupants of the slot; readers must bound themselves by the lengths
// (Trails and SiteName do).
type Record struct {
	// Seq is the record's global emission sequence number (from 1).
	Seq uint64
	// TimeNS is the monotonic emission timestamp (flight.Now clock).
	TimeNS int64
	// Site identifies the decision site (the tuned kernel's ID);
	// SetSiteName attaches its human-readable name.
	Site uint64
	// Iterations is the tuned region's iteration count (0 if unknown).
	Iterations int64
	// Policy and Chunk are the chosen execution parameters. Sites that
	// decide something other than a raja policy store their class in
	// Policy and leave Chunk 0.
	Policy int32
	Chunk  int32
	// Predicted is the model's predicted class, or -1 when no model ran
	// (static tuning, explore override recorded separately).
	Predicted int32
	// NumFeatures bounds the valid prefix of Features.
	NumFeatures int32
	// OffsetsSplit and OffsetsLen bound the two trails packed into
	// Offsets: policy is Offsets[:OffsetsSplit], chunk is
	// Offsets[OffsetsSplit:OffsetsLen]. One trail sets both to its length.
	OffsetsSplit int32
	OffsetsLen   int32
	// DecoderGen is the generation of the recorder's TrailDecoder the
	// offsets were written under (TrailDecoder.Gen; 0 for none). A
	// capture explains only records of the current generation.
	DecoderGen uint32
	// Explored reports that the tuner overrode the model's choice to
	// gather fresh telemetry, so Policy/Chunk may differ from Predicted.
	Explored bool
	siteLen  uint8 // bounds the valid prefix of site
	// PredictedNS is the runtime the emitter expected for this launch:
	// the tuner's per-iteration EWMA of the site's earlier launches under
	// the same policy, times Iterations (0 until the first of them).
	// ObservedNS is what actually happened.
	PredictedNS float64
	ObservedNS  float64
	// FeatureNS and ModelNS are the decision's own overhead: time spent
	// extracting the feature snapshot and evaluating the model.
	FeatureNS float64
	ModelNS   float64
	// Features is the feature snapshot, source-schema layout.
	Features [MaxFeatures]float64
	// Offsets is the only trail form: the offset of every internal node a
	// compiled tree visited, then the (negative) leaf reference, 4 bytes
	// per step — one trail per model the site ran, each at most MaxOffsets
	// long. The capture layer expands them into explained paths via the
	// recorder's TrailDecoder. No compiled tree, no trail.
	Offsets [2 * MaxOffsets]int32
	site    [MaxSiteName]byte
}

// SetSiteName copies the site's name into the record, truncated to
// MaxSiteName bytes. It allocates nothing.
//
//apollo:hotpath
func (r *Record) SetSiteName(name string) { r.siteLen = uint8(copy(r.site[:], name)) }

// SiteName returns the record's site name, "" when none was set
// (allocates; cold path).
func (r *Record) SiteName() string {
	return string(r.site[:min(int(r.siteLen), MaxSiteName)])
}

// Trails returns the record's two offset trails (either may be empty),
// clamped so a torn or foreign record can never index out of range.
func (r *Record) Trails() (first, second []int32) {
	n := min(max(int(r.OffsetsLen), 0), len(r.Offsets))
	k := min(max(int(r.OffsetsSplit), 0), n)
	return r.Offsets[:k], r.Offsets[k:n]
}
