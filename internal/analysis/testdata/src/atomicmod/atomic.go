// Package atomicmod is the atomicalign-analyzer corpus: the typed
// 64-bit atomics analyze clean, every use of a primitive 64-bit
// sync/atomic function is a finding wherever its operand lives.
package atomicmod

import "sync/atomic"

// counters uses the typed atomics, which carry their alignment in the
// type: clean even behind a 4-byte field.
type counters struct {
	flags uint32
	n     atomic.Uint64
	d     atomic.Int64
}

func BumpTyped(c *counters, cs []counters, i int) uint64 {
	c.n.Add(1)
	c.d.Store(-1)
	cs[i].n.Add(1)
	return c.n.Load() + uint64(c.d.Swap(0))
}

// raw keeps a bare uint64 behind a 4-byte field: offset 4 under 32-bit
// layout, where the primitive functions panic.
type raw struct {
	flags uint32
	n     uint64
	d     int64
}

func BumpField(r *raw) {
	atomic.AddUint64(&r.n, 1)   // want `atomic.AddUint64 needs a 64-bit-aligned operand.*use atomic.Uint64`
	_ = atomic.LoadUint64(&r.n) // want `atomic.LoadUint64 needs a 64-bit-aligned operand`
	atomic.StoreInt64(&r.d, 0)  // want `atomic.StoreInt64 needs a 64-bit-aligned operand.*use atomic.Int64`
}

func BumpElement(rs []raw, i int) {
	atomic.AddUint64(&rs[i].n, 1) // want `atomic.AddUint64 needs a 64-bit-aligned operand`
}

var total int64

func BumpPackageVar() bool {
	atomic.AddInt64(&total, 1)                      // want `atomic.AddInt64 needs a 64-bit-aligned operand`
	return atomic.CompareAndSwapInt64(&total, 1, 0) // want `atomic.CompareAndSwapInt64 needs a 64-bit-aligned operand`
}

// A function value is a use too: the call it feeds is no safer.
var add = atomic.AddUint64 // want `atomic.AddUint64 needs a 64-bit-aligned operand`

// 32-bit primitives have no alignment hazard and stay allowed.
func Bump32(r *raw) uint32 {
	return atomic.AddUint32(&r.flags, 1)
}
