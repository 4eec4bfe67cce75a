// Package telemetry is the capture side of Apollo's closed training
// loop. A deployed tuner only evaluates its model; it never learns
// whether the chosen variant was actually the fastest. This package
// records a sampled stream of (feature vector, chosen parameters,
// elapsed time, weight) tuples from the launch hot path, buffers them in
// a bounded lock-free ring, and defines the wire batch the uploader ships
// to the model service — where the spool (see spool.go) makes them
// durable for the continuous trainer. A row's weight (core.ColWeight) is
// the number of launches it stands for.
//
// The capture contract is strict because Tuner.End runs inside every
// kernel launch: the unsampled path costs one atomic load plus one
// atomic add and allocates nothing; the sampled path extracts features
// into a preallocated ring slot and never blocks (a full ring drops the
// sample and counts the drop).
package telemetry

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
	"apollo/internal/ring"
)

// Options tunes a Recorder; the zero value picks sensible defaults.
type Options struct {
	// SampleEvery makes Record keep, and weigh as, one launch in every
	// SampleEvery, rounded up to a power of two so the unsampled decision
	// is a mask test (default 1: record everything). A tuner on the
	// recorder's schema and blackboard thins by its own cadence instead.
	SampleEvery uint64
	// Capacity is the ring size in samples, rounded up to a power of
	// two, at least 2 (default 4096). When the uploader falls behind, the oldest
	// unsent capacity is not overwritten — new samples are dropped and
	// counted, so the consumer never races a producer over a slot.
	Capacity int
}

// Recorder captures sampled launch measurements into a bounded ring.
// Record is safe for any number of concurrent producers; Drain may run
// concurrently with producers (it is the consumer side of the ring).
type Recorder struct {
	schema     *features.Schema
	ann        *caliper.Annotations
	sampleMask uint64 // SampleEvery rounded up to a power of two, minus one
	columns    []string

	seq      atomic.Uint64 // Record calls: the sampling mask's count
	recorded atomic.Uint64 // samples enqueued

	// rows is the sample queue: each record is a preallocated row (a
	// slice into one shared backing array) that Record fills in place.
	rows *ring.Ring[[]float64]
}

// NewRecorder returns a recorder capturing vectors of schema (plus the
// chosen policy, chunk, and elapsed time) against the annotation
// blackboard ann (which may be nil).
func NewRecorder(schema *features.Schema, ann *caliper.Annotations, opts Options) *Recorder {
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 1
	}
	every := uint64(1)
	for every < opts.SampleEvery {
		every <<= 1
	}
	if opts.Capacity <= 0 {
		opts.Capacity = 4096
	}
	r := &Recorder{
		schema:     schema,
		ann:        ann,
		sampleMask: every - 1,
		columns:    append(core.RecordColumns(schema), core.ColWeight),
		rows:       ring.New[[]float64](opts.Capacity),
	}
	width := schema.Len() + 4
	backing := make([]float64, r.rows.Cap()*width)
	r.rows.Prefill(func(i int, row *[]float64) {
		*row = backing[i*width : (i+1)*width : (i+1)*width]
	})
	return r
}

// Recorded returns how many samples entered the ring.
func (r *Recorder) Recorded() uint64 { return r.recorded.Load() }

// Dropped returns how many sampled launches were lost to a full ring.
func (r *Recorder) Dropped() uint64 { return r.rows.Dropped() }

// Record observes one finished launch. The unsampled path is two atomic
// operations and zero allocations; the sampled path reserves a ring
// record, extracts the feature vector into its preallocated row, and
// publishes it. It never blocks: a full ring drops the sample.
//
//apollo:hotpath
func (r *Recorder) Record(k *raja.Kernel, iset *raja.IndexSet, p raja.Params, elapsedNS float64) {
	if r.seq.Add(1)&r.sampleMask != 0 {
		return
	}
	if x, ticket := r.Reserve(); x != nil {
		r.Publish(r.schema.ExtractInto(x, k, iset, r.ann), ticket, p, elapsedNS, float64(r.sampleMask+1))
	}
}

// Captures reports whether a vector extracted against schema and ann is
// the one Record would extract, so a caller that fills the launch's
// vector itself may use Reserve and Publish instead of Record.
func (r *Recorder) Captures(schema *features.Schema, ann *caliper.Annotations) bool {
	return r.schema == schema && r.ann == ann
}

// Reserve claims a ring row for a launch the caller chose to keep and
// returns its feature columns (laid out by Schema) for the caller to fill
// in place, then hand to Publish. On a full ring it returns nil: the drop
// is counted before anything is extracted. It never blocks and never
// allocates.
//
//apollo:hotpath
func (r *Recorder) Reserve() ([]float64, ring.Ticket) {
	row, ticket := r.rows.Reserve()
	if row == nil {
		return nil, 0
	}
	return (*row)[:r.schema.Len()], ticket
}

// Publish enqueues the row Reserve handed out, its feature columns x
// filled, standing for weight launches.
//
//apollo:hotpath
func (r *Recorder) Publish(x []float64, ticket ring.Ticket, p raja.Params, elapsedNS, weight float64) {
	n := r.schema.Len()
	row := x[:n+4]
	row[n] = float64(p.Policy)
	row[n+1] = float64(p.Chunk)
	row[n+2] = elapsedNS
	row[n+3] = weight
	r.rows.Publish(ticket)
	r.recorded.Add(1)
}

// Drain moves up to max buffered samples (everything when max <= 0) into
// a frame laid out by Columns, returning nil when the ring is empty.
// Drain is called from one uploader goroutine at a time in practice, but
// stays correct for concurrent consumers: AddRow copies the row out of
// the shared backing before the slot goes back to producers.
func (r *Recorder) Drain(max int) *dataset.Frame {
	var frame *dataset.Frame
	for n := 0; max <= 0 || n < max; n++ {
		row, ticket := r.rows.Acquire()
		if row == nil {
			break
		}
		if frame == nil {
			frame = dataset.NewFrame(r.columns...)
		}
		frame.AddRow(*row)
		r.rows.Release(ticket)
	}
	return frame
}

// BatchFormatID identifies the telemetry wire format.
const BatchFormatID = "apollo-telemetry-v1"

// Batch is the uploader→service wire format: a block of sample rows for
// one model name, self-describing via its column list and a hash of it.
// The service validates the hash, checks the columns cover the target
// model's features, and appends the rows to the model's spool.
type Batch struct {
	Format     string      `json:"format"`
	Model      string      `json:"model"`
	SchemaHash string      `json:"schema_hash"`
	Columns    []string    `json:"columns"`
	Rows       [][]float64 `json:"rows"`

	// SourceVersion and LoopID attribute the batch to the model version
	// the client was running when it captured these rows, and to the
	// retrain cycle that published that version (from the model's
	// lineage block). Both are optional batch-level metadata — the spool
	// column layout is fixed per spool, so attribution rides beside the
	// rows, not inside them — and old services ignore them.
	SourceVersion int    `json:"source_version,omitempty"`
	LoopID        string `json:"loop_id,omitempty"`
}

// NewBatch assembles a batch from a drained frame.
func NewBatch(model string, frame *dataset.Frame) *Batch {
	cols := frame.Cols()
	rows := make([][]float64, frame.Len())
	for i := range rows {
		rows[i] = frame.Row(i)
	}
	return &Batch{
		Format:     BatchFormatID,
		Model:      model,
		SchemaHash: ColumnsHash(cols),
		Columns:    cols,
		Rows:       rows,
	}
}

// Validate checks the batch's internal consistency: format identifier,
// schema hash, and row widths.
func (b *Batch) Validate() error {
	if b.Format != BatchFormatID {
		return fmt.Errorf("telemetry: unknown batch format %q (want %q)", b.Format, BatchFormatID)
	}
	if b.Model == "" {
		return fmt.Errorf("telemetry: batch has no model name")
	}
	if len(b.Columns) == 0 {
		return fmt.Errorf("telemetry: batch has no columns")
	}
	if got := ColumnsHash(b.Columns); b.SchemaHash != got {
		return fmt.Errorf("telemetry: batch schema hash %s does not match columns (%s)", b.SchemaHash, got)
	}
	for i, row := range b.Rows {
		if len(row) != len(b.Columns) {
			return fmt.Errorf("telemetry: row %d has %d values, want %d", i, len(row), len(b.Columns))
		}
	}
	return nil
}

// Frame converts the batch's rows back into a frame.
func (b *Batch) Frame() *dataset.Frame {
	f := dataset.NewFrame(b.Columns...)
	for _, row := range b.Rows {
		f.AddRow(row)
	}
	return f
}

// ColumnsHash fingerprints an ordered column list, the telemetry
// analogue of core.Model.SchemaHash: equal hashes mean rows are laid out
// identically and can share a spool.
func ColumnsHash(cols []string) string {
	h := fnv.New64a()
	h.Write([]byte(BatchFormatID))
	for _, c := range cols {
		h.Write([]byte{0})
		h.Write([]byte(c))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
