package flight

import (
	_ "unsafe" // for go:linkname
)

// nanotime is the runtime's monotonic clock, and this is the module's
// only linkname to it (looptrace stamps its events through Now too). The
// flight recorder stamps and phase-times every decision on the launch
// hot path, where the apollo-vet hotpath contract (correctly) bans time.Now: it allocates
// nothing but reads the wall clock and carries a time.Time through the
// stack. runtime.nanotime is the raw vDSO monotonic read underneath it —
// a few nanoseconds, no allocation, no lock — which is exactly the
// always-on budget this package promises.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// Now returns the current monotonic time in nanoseconds. The zero point
// is arbitrary (process start); only differences are meaningful, which
// is all the flight recorder needs for phase timings and relative
// timelines. Callers on //apollo:hotpath functions may use it freely.
//
//apollo:hotpath
func Now() int64 { return nanotime() }
