package metrics

import (
	"runtime"
	"sync"
)

// RuntimeCollector samples Go runtime health — goroutine count, heap
// bytes, and the GC pause distribution — into a Metrics set. Both
// daemons call Collect from their /metrics handlers, so a scrape always
// sees fresh values without a background sampling goroutine.
type RuntimeCollector struct {
	m *Metrics

	mu        sync.Mutex
	lastNumGC uint32
}

// NewRuntimeCollector returns a collector writing into m.
func NewRuntimeCollector(m *Metrics) *RuntimeCollector {
	return &RuntimeCollector{m: m}
}

// Collect samples the runtime now: goroutine and thread counts, heap
// gauges, and every GC pause completed since the previous Collect into
// the pause histogram. Safe for concurrent callers; pauses are consumed
// exactly once.
func (rc *RuntimeCollector) Collect() {
	rc.m.GaugeSet("apollo_go_goroutines", "", "",
		"Number of live goroutines.", int64(runtime.NumGoroutine()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rc.m.GaugeSet("apollo_go_heap_alloc_bytes", "", "",
		"Bytes of allocated heap objects.", int64(ms.HeapAlloc))
	rc.m.GaugeSet("apollo_go_heap_sys_bytes", "", "",
		"Bytes of heap memory obtained from the OS.", int64(ms.HeapSys))
	rc.m.GaugeSet("apollo_go_heap_objects", "", "",
		"Number of allocated heap objects.", int64(ms.HeapObjects))
	rc.m.GaugeSet("apollo_go_gc_cycles_total", "", "",
		"Completed GC cycles.", int64(ms.NumGC))

	// Feed the pauses completed since the last collect into the
	// histogram. MemStats keeps the most recent 256 pause times in a
	// circular buffer indexed by GC cycle number.
	rc.mu.Lock()
	last := rc.lastNumGC
	rc.lastNumGC = ms.NumGC
	rc.mu.Unlock()
	if ms.NumGC-last > uint32(len(ms.PauseNs)) {
		last = ms.NumGC - uint32(len(ms.PauseNs))
	}
	for c := last; c < ms.NumGC; c++ {
		pause := ms.PauseNs[c%uint32(len(ms.PauseNs))]
		rc.m.Observe("apollo_go_gc_pause_seconds",
			"Stop-the-world GC pause durations.", float64(pause)/1e9)
	}
}
