package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the layer. Parent is the index of the
// span that caused it (-1 for a root); spans of one launch or request
// share ID. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. It is owned by
// one goroutine; the run merges the recorders of its parts when it
// writes the trace file. limit, when positive, bounds the spans kept:
// past it they are counted, not kept, and the totals the metrics come
// from keep accumulating in the caller.
type spanRecorder struct {
	epoch   time.Time
	limit   int
	spans   []span
	dropped int64
}

func newSpanRecorder(epoch time.Time, limit int) *spanRecorder {
	return &spanRecorder{epoch: epoch, limit: limit}
}

// now is the recorder's clock.
func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// droppedSpan is what add returns for a span it did not keep; passed
// on as a parent, it drops the children too.
const droppedSpan = -2

// add records one span and returns its index.
func (r *spanRecorder) add(name string, id int64, parent int32, start, end int64) int32 {
	if (r.limit > 0 && len(r.spans) >= r.limit) || parent == droppedSpan {
		r.dropped++
		return droppedSpan
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return int32(len(r.spans) - 1)
}

// merge appends o's spans, re-basing their parent indices.
func (r *spanRecorder) merge(o *spanRecorder) {
	base := int32(len(r.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
	r.dropped += o.dropped
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover (children may overlap one another).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// checkSpans reports the first way the span tree is malformed: a child
// outside its parent, a negative duration or self time, or launch spans
// whose children cover less than minLaunchCover of them in total.
func checkSpans(spans []span) error {
	const minLaunchCover = 0.95
	self := selfTimes(spans)
	var launchNS, launchSelf int64
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= int32(i) {
			return fmt.Errorf("span %d (%s) names parent %d, which does not precede it", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) lies outside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
			if s.ID != p.ID {
				return fmt.Errorf("span %d (%s) has id %d, its parent %d", i, s.Name, s.ID, p.ID)
			}
		}
		if self[i] < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d", i, s.Name, self[i])
		}
		if s.Name == spanLaunch {
			launchNS += s.End - s.Start
			launchSelf += self[i]
		}
	}
	if launchNS > 0 && float64(launchNS-launchSelf) < minLaunchCover*float64(launchNS) {
		return fmt.Errorf("launch children cover %.1f%% of the launch spans, want >= %.0f%%",
			100*float64(launchNS-launchSelf)/float64(launchNS), 100*minLaunchCover)
	}
	return nil
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Dropped  int64  `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
