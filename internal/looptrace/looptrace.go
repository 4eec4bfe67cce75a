// Package looptrace is the closed-loop flight recorder: one structured
// event for every stage of the model lifecycle — drift fired, retrain
// started/ended, duel judged, model published, peer pulled, client
// swapped, replica evicted/readmitted, telemetry ingested — kept in a
// bounded window for the debug endpoint and made durable as JSONL
// journals.
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
// These are control-plane events — one per loop stage or telemetry
// batch, never one per launch — so Emit takes the tracer's mutex, stores
// the event by index in the window and, with a journal attached, queues
// it for the next Flush. Nothing is dropped and nothing is truncated.
package looptrace

import (
	"sync"
	"time"

	"apollo/internal/journal"
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

// Event is one loop event, in the one shape journal lines, debug
// captures and stitched reports all carry.
type Event struct {
	Kind    string  `json:"kind"`              // Kind.String()
	Seq     uint64  `json:"seq"`               // per-tracer emit sequence, 1-based
	WallNS  int64   `json:"wall_ns"`           // wall-clock unix nanoseconds, monotone per tracer
	Actor   string  `json:"actor,omitempty"`   // the emitting tracer's actor
	Model   string  `json:"model,omitempty"`   // model name
	Loop    string  `json:"loop,omitempty"`    // retrain-cycle correlation ID
	Peer    string  `json:"peer,omitempty"`    // peer ID or duel verdict (see Kind docs)
	Version int32   `json:"version,omitempty"` // model version the event is about
	Parent  int32   `json:"parent,omitempty"`  // predecessor version
	Rows    int64   `json:"rows,omitempty"`    // row count: window, holdout, or batch
	DurNS   float64 `json:"dur_ns,omitempty"`  // stage duration in ns
	A       float64 `json:"a,omitempty"`       // kind-specific scalars (see Kind docs)
	B       float64 `json:"b,omitempty"`
}

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
	// Capacity is the number of most recent events the window keeps for
	// the debug endpoint, oldest evicted first (default 1024). A journal
	// is not bounded by it: every event emitted while one is attached
	// waits for the next Flush.
	Capacity int
}

// Tracer records, buffers, and journals one process's loop events.
type Tracer struct {
	actor string
	// start anchors the wall clock at construction; an event's WallNS is
	// wallNS plus time.Since(start), read off the monotonic clock, so
	// stamps never step backwards when the wall clock is adjusted.
	start  time.Time
	wallNS int64

	// mu guards everything below. Emit holds it for a copy and an index
	// bump; Flush holds it only to take pending, and writes after.
	mu      sync.Mutex //apollo:lockrank 50
	seq     uint64
	window  []Event // circular once full: window[next] is the oldest
	next    int
	journal *journal.Log
	pending []Event // emitted since the last flush, while a journal is attached
}

// New returns a tracer identified by actor (e.g. "traind", "serve:r1",
// "tune"). The actor names the journal file and tags every event, so give
// each process in a fleet a distinct one.
func New(actor string, opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	start := time.Now()
	return &Tracer{
		actor:  actor,
		start:  start,
		wallNS: start.UnixNano(),
		window: make([]Event, 0, opts.Capacity),
	}
}

// Emitted returns how many events the tracer has recorded.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Emit records one loop event. It is safe on a nil tracer (a no-op), so
// instrumented packages can call it unconditionally. Without a journal
// it does not allocate.
func (t *Tracer) Emit(kind Kind, model, loop string, f Fields) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev := Event{
		Kind: kind.String(), Seq: t.seq, WallNS: t.wallNS + int64(time.Since(t.start)),
		Actor: t.actor, Model: model, Loop: loop, Peer: f.Peer,
		Version: f.Version, Parent: f.Parent, Rows: f.Rows, DurNS: f.DurNS, A: f.A, B: f.B,
	}
	if len(t.window) < cap(t.window) {
		t.window = append(t.window, ev)
	} else {
		t.window[t.next] = ev
		t.next = (t.next + 1) % len(t.window)
	}
	if t.journal != nil {
		t.pending = append(t.pending, ev)
	}
}

// Snapshot returns a copy of the window, oldest event first.
func (t *Tracer) Snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.window))
	out = append(out, t.window[t.next:]...)
	return append(out, t.window[:t.next]...)
}
