// Package ring is the one bounded lock-free queue under Apollo's capture
// paths: a Vyukov MPMC ring of preallocated records. Producers on the
// launch hot path reserve a record, fill it in place, and publish it —
// no allocation, no lock, and a full ring drops the newest record (and
// counts it) rather than stalling the caller. Consumers acquire the
// oldest published record, copy what they need out of it, and only then
// release the slot back to producers.
//
// telemetry.Recorder, the tuner's launch-row queue, is its one user.
// flight.Recorder deliberately is not: it is a
// keep-latest arena (writers lap old records, drains pin and flip whole
// buffers) where this ring is drop-newest FIFO, and one type serving
// both would branch on its caller.
package ring

import "sync/atomic"

// Ticket names a slot between the two halves of a produce
// (Reserve/Publish) or a consume (Acquire/Release).
type Ticket uint64

// slot is one ring cell. seq encodes whose turn it is: seq == pos means
// free for the producer holding ticket pos, seq == pos+1 published for
// the consumer holding ticket pos.
type slot[T any] struct {
	seq atomic.Uint64
	rec T
	_   [4]uint64 // keep neighboring seq words off one cache line for small T
}

// Ring is a bounded multi-producer multi-consumer queue of preallocated
// records of type T. All methods are safe for concurrent use.
type Ring[T any] struct {
	mask    uint64
	slots   []slot[T]
	enqueue atomic.Uint64
	dequeue atomic.Uint64
	dropped atomic.Uint64
}

// New returns a ring holding capacity records, rounded up to a power of
// two so slot selection is a mask, not a division. It holds at least two:
// in a one-slot ring a published record's seq is the next producer's
// position, so Reserve would take it as free.
func New[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{mask: uint64(n - 1), slots: make([]slot[T], n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring's capacity in records.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Prefill hands every record to init once, for record types that carry
// preallocated storage (a slice into shared backing). It must run before
// the first Reserve.
func (r *Ring[T]) Prefill(init func(i int, rec *T)) {
	for i := range r.slots {
		init(i, &r.slots[i].rec)
	}
}

// Dropped returns how many reservations a full ring refused.
func (r *Ring[T]) Dropped() uint64 { return r.dropped.Load() }

// Reserve claims the next free record for the caller to fill in place;
// Publish(ticket) then hands it to consumers. It returns nil when the
// ring is full — the record is dropped and counted, never waited for.
// The record holds whatever its previous occupant left; callers
// overwrite every field they publish.
//
//apollo:hotpath
func (r *Ring[T]) Reserve() (*T, Ticket) {
	for {
		pos := r.enqueue.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if r.enqueue.CompareAndSwap(pos, pos+1) {
				return &s.rec, Ticket(pos)
			}
		case seq < pos: // the consumer has not released this slot: full
			r.dropped.Add(1)
			return nil, 0
		}
		// Otherwise another producer advanced enqueue between our two
		// loads; retry with the fresh position.
	}
}

// Publish makes a reserved record visible to consumers. The caller must
// not touch the record afterwards.
//
//apollo:hotpath
func (r *Ring[T]) Publish(t Ticket) {
	r.slots[uint64(t)&r.mask].seq.Store(uint64(t) + 1)
}

// Acquire claims the oldest published record, or returns nil when the
// ring is empty. No producer can reuse the slot until Release(ticket),
// so a record that references shared storage can be copied out first.
func (r *Ring[T]) Acquire() (*T, Ticket) {
	for {
		pos := r.dequeue.Load()
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if r.dequeue.CompareAndSwap(pos, pos+1) {
				return &s.rec, Ticket(pos)
			}
		case seq <= pos:
			return nil, 0 // empty
		}
	}
}

// Release frees an acquired slot for the producer one lap ahead.
func (r *Ring[T]) Release(t Ticket) {
	r.slots[uint64(t)&r.mask].seq.Store(uint64(t) + r.mask + 1)
}
