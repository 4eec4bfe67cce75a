package flight

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"apollo/internal/ctree"
)

// slot is one ring cell: a record plus its claim word. claim is 1 while
// a writer is filling the record, 0 otherwise; a writer that finds the
// slot claimed (it lapped a straggler) drops its record rather than
// corrupting the in-flight one.
type slot struct {
	rec   Record
	claim atomic.Uint32
}

// ring is the recorder's record buffer. active counts writers currently
// inside the buffer; the drain protocol (see drainLocked) swaps a fresh
// ring in and waits for active to hit zero, after which the old ring is
// quiescent and safe to read with plain loads.
type ring struct {
	active atomic.Int64
	pos    atomic.Uint64
	slots  []slot
}

func newRing(capacity int) *ring {
	return &ring{slots: make([]slot, capacity)}
}

// Options configures a Recorder. The zero value is a sensible default:
// 512 records in the ring and as many in the retained history.
type Options struct {
	// Capacity is the number of records the ring holds between drains
	// and the retained history keeps after them (rounded up to a power of
	// two). Memory is about 3*Capacity*744 bytes: the ring, its spare and
	// the history.
	Capacity int
	// FeatureNames names feature-vector indices for explanations
	// (typically the Table I schema names).
	FeatureNames []string
}

// Recorder is the flight recorder: an always-on, lock-free ring of
// decision Records.
//
// Write protocol (hot path, zero allocations): Reserve a record, fill it
// in place, Commit. Reserve pins the current ring with an active count,
// double-checking the ring is still published after pinning — a
// concurrent drain that swapped rings is detected and the writer retries
// on the new ring, so payload writes only ever hit a published ring. A
// per-slot claim word turns writer-lap collisions into counted drops
// instead of torn records.
//
// Read protocol (cold path): the drain unpublishes the ring, waits for
// its writers to leave, then reads it with plain loads — no per-field
// atomics, race-detector clean — and keeps it as the next spare.
// Readers therefore never block writers beyond the fill of one record.
//
// A nil *Recorder is the disabled state; callers gate emission on a nil
// check, which is the entire cost when flight recording is off.
type Recorder struct {
	ringMask uint64
	buf      atomic.Pointer[ring]
	_        [48]byte // keep the published ring off the counters' cache line

	seq     atomic.Uint64
	emitted atomic.Uint64
	dropped atomic.Uint64

	// dec explains every record's offset trails: one decoder per
	// recorder, since its one producer runs one projector set. SetDecoder
	// swaps it on a model change and numbers it from decGen.
	dec    atomic.Pointer[TrailDecoder]
	decGen atomic.Uint32

	featureNames []string

	// retainMu serializes drains and guards retained and the spare ring
	// the drain flips to, so steady-state snapshots allocate nothing.
	retainMu sync.Mutex //apollo:lockrank 31
	retained []Record
	spare    *ring
}

// TrailDecoder ties records' offset trails (Record.Offsets) to the
// compiled trees that wrote them — Tree for the first (policy) trail,
// ChunkTree for the second, either may be nil — each with its
// model→source feature index mapping for source-schema explanations (nil
// when vectors are already in the model's schema). Immutable once
// installed: a model swap installs a fresh decoder, both pairs at once.
type TrailDecoder struct {
	Tree      *ctree.Tree
	Src       []int32
	ChunkTree *ctree.Tree
	ChunkSrc  []int32

	gen uint32 // the recorder's numbering of it, from 1; 0 until installed
}

// Gen returns the decoder's generation, what an emitter stamps into
// Record.DecoderGen.
//
//apollo:hotpath
func (d *TrailDecoder) Gen() uint32 { return d.gen }

// New builds a Recorder.
func New(opts Options) *Recorder {
	capacity := 512
	if opts.Capacity > 0 {
		capacity = ceilPow2(opts.Capacity)
	}
	r := &Recorder{
		ringMask:     uint64(capacity - 1),
		featureNames: append([]string(nil), opts.FeatureNames...),
		spare:        newRing(capacity),
	}
	r.buf.Store(newRing(capacity))
	return r
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Token links a reserved record back to its ring for Commit. The zero
// Token (from a dropped reservation) commits as a no-op.
type Token struct {
	ring *ring
	slot *slot
}

// Reserve claims a record slot for the given site and stamps Seq,
// TimeNS, and Site. The caller fills the remaining fields in place (the
// site's name through SetSiteName) and must Commit the returned token
// promptly — the slot stays claimed and the ring stays pinned until then.
// Reserve returns a nil record when a lapping writer still owns the slot;
// callers must tolerate that (skip the fill, still call Commit).
//
// The ring behind buf is a mutable arena, not a copy-on-write value:
// slots are claimed by CAS before any write and released by Commit, and
// drains quiesce on the active pin count before reading.
//
//apollo:hotpath
func (r *Recorder) Reserve(siteID uint64) (*Record, Token) {
	var rb *ring
	for {
		rb = r.buf.Load()
		rb.active.Add(1)
		if r.buf.Load() == rb {
			break
		}
		// A drain swapped rings between our load and pin; leave and
		// retry on the newly published ring.
		rb.active.Add(-1)
	}
	s := &rb.slots[(rb.pos.Add(1)-1)&r.ringMask]
	if !s.claim.CompareAndSwap(0, 1) {
		rb.active.Add(-1)
		r.dropped.Add(1)
		return nil, Token{}
	}
	rec := &s.rec
	rec.Seq = r.seq.Add(1)
	rec.TimeNS = nanotime()
	rec.Site = siteID
	rec.Iterations = 0
	rec.Policy = 0
	rec.Chunk = 0
	rec.Predicted = -1
	rec.NumFeatures = 0
	rec.OffsetsSplit = 0
	rec.OffsetsLen = 0
	rec.DecoderGen = 0
	rec.Explored = false
	rec.siteLen = 0
	rec.PredictedNS = 0
	rec.ObservedNS = 0
	rec.FeatureNS = 0
	rec.ModelNS = 0
	return rec, Token{ring: rb, slot: s}
}

// Commit publishes a reserved record: it releases the slot claim, then
// unpins the ring, which is the happens-before edge a drain waits on
// before reading the payload.
//
//apollo:hotpath
func (r *Recorder) Commit(t Token) {
	if t.slot == nil {
		return
	}
	t.slot.claim.Store(0)
	t.ring.active.Add(-1)
	r.emitted.Add(1)
}

// Emitted returns the number of committed records since creation.
func (r *Recorder) Emitted() uint64 { return r.emitted.Load() }

// Dropped returns the number of reservations dropped on slot collisions.
func (r *Recorder) Dropped() uint64 { return r.dropped.Load() }

// Decoder returns the current trail decoder, nil before the first
// SetDecoder. An emitter reads it per record to detect model swaps: one
// atomic load.
//
//apollo:hotpath
func (r *Recorder) Decoder() *TrailDecoder { return r.dec.Load() }

// SetDecoder installs a copy of d, numbered with the recorder's next
// generation, as the decoder of the records written from now on, and
// returns the copy: its Gen is what an emitter stamps into each record
// whose offsets it wrote with d's trees. A capture explains a record
// only under the decoder of its own generation, so a record written
// before a model swap keeps its features and outcome but shows no path
// (the new trees would render thresholds the deciding model never had).
// Runs once per model swap, never per launch.
func (r *Recorder) SetDecoder(d TrailDecoder) *TrailDecoder {
	d.gen = r.decGen.Add(1)
	r.dec.Store(&d)
	return &d
}

// Snapshot drains the ring into the retained history and returns a copy
// of the retained records ordered by emission sequence. It is
// non-destructive from the caller's perspective: records stay in the
// retained window (bounded by Options.Capacity) until newer ones push
// them out.
func (r *Recorder) Snapshot() []Record {
	r.retainMu.Lock()
	defer r.retainMu.Unlock()
	r.drainLocked()
	out := make([]Record, len(r.retained))
	copy(out, r.retained)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// drainLocked moves every committed record out of the ring into
// retained. Caller holds retainMu.
func (r *Recorder) drainLocked() {
	old := r.buf.Load()
	if old.pos.Load() == 0 {
		return // nothing reserved this generation
	}
	r.buf.Store(r.spare)
	// Writers that pinned the old ring before the swap finish their one
	// record and leave; writers arriving after the swap bounce off the
	// double-check in Reserve. Quiescence is bounded by one record fill.
	for old.active.Load() != 0 {
		runtime.Gosched()
	}
	for j := range old.slots {
		s := &old.slots[j]
		if s.rec.Seq != 0 {
			r.retained = append(r.retained, s.rec)
			// The old ring was unpublished by the swap above and quiesced
			// on active==0; clearing Seq recycles it as the next spare.
			s.rec.Seq = 0
		}
	}
	old.pos.Store(0)
	r.spare = old
	if n := len(r.retained) - len(old.slots); n > 0 {
		sort.Slice(r.retained, func(i, j int) bool { return r.retained[i].Seq < r.retained[j].Seq })
		r.retained = append(r.retained[:0], r.retained[n:]...)
	}
}
