// Package looptrace is the closed-loop flight recorder: fixed-size
// structured events for every stage of the model lifecycle — drift
// fired, retrain started/ended, duel judged, model published, peer
// pulled, client swapped, replica evicted/readmitted, telemetry
// ingested — emitted through a lock-free ring (internal/ring) and made
// durable as JSONL journals.
//
// Each process in the loop (apollo-traind, every apollo-serve replica,
// a tuner-side application) owns one Tracer identified by an actor
// string. Events that belong to the same retrain cycle share a loop ID,
// minted by the trainer when a drift trigger (or bootstrap) starts a
// cycle and carried in the published model's lineage block, so the ID
// propagates to replicas on sync-pull, to clients on fetch, and back to
// the service inside telemetry batches. `apollo-inspect loop` stitches
// the journals of N processes into one causal timeline and reports the
// loop reaction time (drift-detect → retrain → publish → converged).
//
// Emit is //apollo:hotpath: the producer side is an internal/ring queue
// of preallocated fixed-size events — reserve a record, copy the strings
// into inline byte arrays, publish it — with zero allocation, no locks,
// and drop-not-block on a full ring. Only the consumer side (journal
// flush, debug capture) takes a mutex.
package looptrace

import (
	"cmp"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"apollo/internal/flight"
	"apollo/internal/journal"
	"apollo/internal/ring"
)

// Kind enumerates the loop stages an event can mark.
type Kind uint8

const (
	// KindDriftFired marks a drift trigger tripping on the training
	// window (A = mispredict rate, B = shift score, Rows = window).
	KindDriftFired Kind = iota + 1
	// KindRetrainStart marks a challenger train beginning (Rows =
	// training rows, Parent = champion version, A = the step's spool poll
	// ns, B = its window labelling ns — the two stages before the train).
	KindRetrainStart
	// KindRetrainEnd marks the train finishing (DurNS = train time).
	KindRetrainEnd
	// KindDuel marks the champion/challenger holdout duel (A = champion
	// mean predicted ns, B = challenger, Rows = holdout rows, Peer =
	// verdict: "publish", "reject", or "veto").
	KindDuel
	// KindPublish marks a model version entering a registry (Version =
	// published version, Parent = predecessor).
	KindPublish
	// KindSyncPull marks a replica pulling a newer version from a peer
	// (Peer = peer id, DurNS = pull time).
	KindSyncPull
	// KindClientSwap marks a client hot-swapping to a fetched version.
	KindClientSwap
	// KindRingEvict marks fleet health evicting a replica (Peer = id).
	KindRingEvict
	// KindRingReadmit marks an evicted replica rejoining (Peer = id).
	KindRingReadmit
	// KindIngest marks the service spooling a telemetry batch (Rows =
	// batch rows, Version = the model version the client ran under).
	KindIngest

	kindCount
)

var kindNames = [kindCount]string{
	KindDriftFired:   "drift-fired",
	KindRetrainStart: "retrain-start",
	KindRetrainEnd:   "retrain-end",
	KindDuel:         "duel",
	KindPublish:      "publish",
	KindSyncPull:     "sync-pull",
	KindClientSwap:   "client-swap",
	KindRingEvict:    "ring-evict",
	KindRingReadmit:  "ring-readmit",
	KindIngest:       "telemetry-ingest",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if k == 0 || k >= kindCount {
		return "unknown"
	}
	return kindNames[k]
}

// KindFromString inverts Kind.String (0 for an unknown name).
func KindFromString(s string) Kind {
	for k := Kind(1); k < kindCount; k++ {
		if kindNames[k] == s {
			return k
		}
	}
	return 0
}

// Inline string capacities. Longer strings truncate on emit; model
// names are registry-validated well under MaxModel and loop IDs are
// minted at a fixed length, so truncation only bites hand-rolled input.
const (
	MaxModel = 64
	MaxLoop  = 48
	MaxPeer  = 32
)

// Event is one fixed-size, pointer-free loop event. Strings live in
// inline byte arrays so a ring of Events is a single allocation and an
// emit never touches the heap.
type Event struct {
	Seq     uint64 // per-tracer emit sequence, 1-based
	WallNS  int64  // wall-clock unix nanoseconds (see Tracer clock note)
	Kind    Kind
	Version int32   // model version the event is about (0 if n/a)
	Parent  int32   // predecessor version (0 if n/a)
	Rows    int64   // row count (window, holdout, or batch; 0 if n/a)
	DurNS   float64 // stage duration in ns (0 if n/a)
	A, B    float64 // kind-specific scalars (see Kind docs)

	modelLen, loopLen, peerLen int32
	model                      [MaxModel]byte
	loop                       [MaxLoop]byte
	peer                       [MaxPeer]byte
}

// ModelName returns the event's model name (allocates; cold path).
func (e *Event) ModelName() string { return string(e.model[:e.modelLen]) }

// LoopID returns the event's correlation ID (allocates; cold path).
func (e *Event) LoopID() string { return string(e.loop[:e.loopLen]) }

// Peer returns the event's peer/verdict string (allocates; cold path).
func (e *Event) Peer() string { return string(e.peer[:e.peerLen]) }

// Fields carries the optional per-event payload of an Emit.
type Fields struct {
	Version int32
	Parent  int32
	Rows    int64
	DurNS   float64
	A, B    float64
	Peer    string
}

// Options configures a Tracer.
type Options struct {
	// Capacity is the number of events the ring holds between drains
	// (rounded up to a power of two) and the drained window keeps for
	// the debug endpoint after them, oldest evicted first (default 1024).
	// A full ring drops events rather than blocking.
	Capacity int
}

// Tracer emits, buffers, and journals one process's loop events.
type Tracer struct {
	actor string
	// wallBase anchors the monotonic clock to the wall clock: computed
	// once at construction as time.Now() - flight.Now() (the module's one
	// monotonic clock), so the hot-path emit derives a cross-process-
	// comparable wall timestamp from a single vDSO monotonic read, never
	// calling time.Now.
	wallBase int64

	emitted atomic.Uint64
	events  *ring.Ring[Event]

	// mu serializes the cold consumer side: draining the ring into the
	// retained window and into pending, the encoded lines the next flush
	// appends to the journal. Never touched by Emit, never held over I/O.
	mu       sync.Mutex //apollo:lockrank 50
	retained []Event
	journal  *journal.Log
	pending  []byte
}

// New returns a tracer identified by actor (e.g. "traind", "serve:r1",
// "tune"). The actor names the journal file and tags every stitched
// event, so give each process in a fleet a distinct one.
func New(actor string, opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	return &Tracer{
		actor:    actor,
		wallBase: time.Now().UnixNano() - flight.Now(),
		events:   ring.New[Event](opts.Capacity),
	}
}

// Emitted returns how many events entered the ring.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	return t.emitted.Load()
}

// Dropped returns how many events were lost to a full ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.events.Dropped()
}

// Emit records one loop event. It is safe on a nil tracer (a no-op), so
// instrumented packages can call it unconditionally. The event's wall
// timestamp comes from one monotonic clock read against the tracer's
// construction-time wall anchor. Emit never blocks and never
// allocates: a full ring drops the event.
//
//apollo:hotpath
func (t *Tracer) Emit(kind Kind, model, loop string, f Fields) {
	if t == nil {
		return
	}
	ev, ticket := t.events.Reserve()
	if ev == nil {
		return
	}
	ev.Kind = kind
	ev.WallNS = t.wallBase + flight.Now()
	ev.Version = f.Version
	ev.Parent = f.Parent
	ev.Rows = f.Rows
	ev.DurNS = f.DurNS
	ev.A = f.A
	ev.B = f.B
	ev.modelLen = int32(copy(ev.model[:], model))
	ev.loopLen = int32(copy(ev.loop[:], loop))
	ev.peerLen = int32(copy(ev.peer[:], f.Peer))
	ev.Seq = t.emitted.Add(1)
	t.events.Publish(ticket)
}

// drainLocked moves every ring event into the retained window (bounded,
// oldest first out) and, when a journal is attached, its line into
// pending. Caller holds t.mu.
func (t *Tracer) drainLocked() error {
	var firstErr error
	for {
		rec, ticket := t.events.Acquire()
		if rec == nil {
			break
		}
		ev := *rec
		t.events.Release(ticket)
		t.retained = append(t.retained, ev)
		if t.journal != nil {
			line, err := json.Marshal(ev.toJSON(t.actor))
			if err != nil {
				firstErr = cmp.Or(firstErr, err)
				continue
			}
			t.pending = append(append(t.pending, line...), '\n')
		}
	}
	if n := len(t.retained) - t.events.Cap(); n > 0 {
		t.retained = append(t.retained[:0], t.retained[n:]...)
	}
	return firstErr
}

// Snapshot drains the ring and returns a copy of the retained window in
// emit order. It loses nothing: drained events stay retained (up to the
// ring's capacity) for the next snapshot.
func (t *Tracer) Snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.drainLocked() //apollo:errok an event JSON cannot carry (a NaN) stays out of the journal whoever drains it; a debug snapshot must still serve what it has
	return append([]Event(nil), t.retained...)
}
