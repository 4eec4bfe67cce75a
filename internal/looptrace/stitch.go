// Stitching turns the union of N processes' journals into a causal
// timeline per loop ID and the loop-reaction-time distribution the SLO
// is stated over. Events from different processes order by their wall
// timestamps — each tracer anchors one monotonic clock to the wall
// clock at construction, so same-machine journals interleave correctly
// to well under the seconds-scale stages being measured.

package looptrace

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// ReportFormatID identifies the stitched-report JSON shape.
const ReportFormatID = "apollo-loop-report-v1"

// LoopTimeline is one retrain cycle's stitched event sequence.
type LoopTimeline struct {
	Loop    string `json:"loop"`
	Model   string `json:"model,omitempty"`
	Version int32  `json:"version,omitempty"` // version the cycle published
	Parent  int32  `json:"parent,omitempty"`

	StartNS int64 `json:"start_wall_ns"`
	EndNS   int64 `json:"end_wall_ns"`

	// Drift reports whether a drift trigger started the cycle (false
	// for a bootstrap publish).
	Drift bool `json:"drift"`
	// Complete reports a closed loop: retrain start and end, a
	// publish, and at least one convergence signal (sync-pull or
	// client-swap) all present.
	Complete bool `json:"complete"`
	// ReactionNS is the loop reaction time: first signal (drift-fired,
	// else retrain-start) to the last convergence event.
	ReactionNS float64 `json:"reaction_ns,omitempty"`
	// Stages breaks the reaction down: detect (drift→retrain-start),
	// retrain, publish (retrain-end→publish), distribute (publish→last
	// sync-pull), swap (publish→last client-swap). Absent stages are
	// omitted.
	Stages map[string]float64 `json:"stages_ns,omitempty"`

	Events []Event `json:"events"`
}

// Stats is a sample distribution summary (nanoseconds).
type Stats struct {
	Count int     `json:"count"`
	P50NS float64 `json:"p50_ns"`
	P99NS float64 `json:"p99_ns"`
	MaxNS float64 `json:"max_ns"`
}

// Report is the stitched view of a journal set.
type Report struct {
	Format   string   `json:"format"`
	Actors   []string `json:"actors"`
	Events   int      `json:"events"`
	Unscoped int      `json:"unscoped_events"` // events with no loop ID (ring evict/readmit, hand publishes)

	Loops         []LoopTimeline `json:"loops"`
	CompleteLoops int            `json:"complete_loops"`

	// Reaction summarizes ReactionNS over complete loops; Stages
	// summarizes each stage over the loops where it occurred.
	Reaction Stats            `json:"reaction"`
	Stages   map[string]Stats `json:"stages"`
}

// Stitch groups events by loop ID into timelines and computes the
// reaction-time distribution. Events without a loop ID are counted but
// belong to no timeline.
func Stitch(events []Event) *Report {
	r := &Report{Format: ReportFormatID, Events: len(events), Stages: map[string]Stats{}}
	actors := map[string]bool{}
	byLoop := map[string][]Event{}
	var order []string
	for _, ev := range events {
		if ev.Actor != "" && !actors[ev.Actor] {
			actors[ev.Actor] = true
			r.Actors = append(r.Actors, ev.Actor)
		}
		if ev.Loop == "" {
			r.Unscoped++
			continue
		}
		if _, ok := byLoop[ev.Loop]; !ok {
			order = append(order, ev.Loop)
		}
		byLoop[ev.Loop] = append(byLoop[ev.Loop], ev)
	}
	sort.Strings(r.Actors)

	stageSamples := map[string][]float64{}
	var reactions []float64
	for _, loop := range order {
		tl := stitchLoop(loop, byLoop[loop])
		if tl.Complete {
			r.CompleteLoops++
			reactions = append(reactions, tl.ReactionNS)
		}
		for stage, ns := range tl.Stages {
			stageSamples[stage] = append(stageSamples[stage], ns)
		}
		r.Loops = append(r.Loops, *tl)
	}
	sort.Slice(r.Loops, func(i, j int) bool { return r.Loops[i].StartNS < r.Loops[j].StartNS })
	r.Reaction = summarize(reactions)
	for stage, samples := range stageSamples {
		r.Stages[stage] = summarize(samples)
	}
	return r
}

func stitchLoop(loop string, events []Event) *LoopTimeline {
	sort.Slice(events, func(i, j int) bool {
		if events[i].WallNS != events[j].WallNS {
			return events[i].WallNS < events[j].WallNS
		}
		return events[i].Seq < events[j].Seq
	})
	tl := &LoopTimeline{Loop: loop, Events: events, Stages: map[string]float64{}}
	var tDrift, tRetrainStart, tRetrainEnd, tPublish, tLastPull, tLastSwap int64
	converged := false
	for _, ev := range events {
		if tl.Model == "" {
			tl.Model = ev.Model
		}
		switch KindFromString(ev.Kind) {
		case KindDriftFired:
			if tDrift == 0 {
				tDrift = ev.WallNS
			}
		case KindRetrainStart:
			if tRetrainStart == 0 {
				tRetrainStart = ev.WallNS
			}
		case KindRetrainEnd:
			if tRetrainEnd == 0 {
				tRetrainEnd = ev.WallNS
			}
		case KindPublish:
			if tPublish == 0 {
				tPublish = ev.WallNS
			}
			if tl.Version == 0 {
				tl.Version, tl.Parent = ev.Version, ev.Parent
			}
		case KindSyncPull:
			tLastPull = ev.WallNS
			converged = true
		case KindClientSwap:
			tLastSwap = ev.WallNS
			converged = true
		}
	}
	tl.Drift = tDrift != 0
	tl.StartNS = tDrift
	if tl.StartNS == 0 {
		tl.StartNS = tRetrainStart
	}
	if tl.StartNS == 0 && len(events) > 0 {
		tl.StartNS = events[0].WallNS
	}
	if len(events) > 0 {
		tl.EndNS = events[len(events)-1].WallNS
	}
	if tDrift != 0 && tRetrainStart != 0 {
		tl.Stages["detect"] = float64(tRetrainStart - tDrift)
	}
	if tRetrainStart != 0 && tRetrainEnd != 0 {
		tl.Stages["retrain"] = float64(tRetrainEnd - tRetrainStart)
	}
	if tRetrainEnd != 0 && tPublish != 0 {
		tl.Stages["publish"] = float64(tPublish - tRetrainEnd)
	}
	if tPublish != 0 && tLastPull != 0 {
		tl.Stages["distribute"] = float64(tLastPull - tPublish)
	}
	if tPublish != 0 && tLastSwap != 0 {
		tl.Stages["swap"] = float64(tLastSwap - tPublish)
	}
	tl.Complete = tRetrainStart != 0 && tRetrainEnd != 0 && tPublish != 0 && converged
	if tl.Complete {
		end := tLastPull
		if tLastSwap > end {
			end = tLastSwap
		}
		tl.ReactionNS = float64(end - tl.StartNS)
		tl.Stages["total"] = tl.ReactionNS
	}
	return tl
}

// summarize computes nearest-rank percentiles over samples.
func summarize(samples []float64) Stats {
	if len(samples) == 0 {
		return Stats{}
	}
	sort.Float64s(samples)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(samples)))) - 1
		if i < 0 {
			i = 0
		}
		return samples[i]
	}
	return Stats{
		Count: len(samples),
		P50NS: rank(0.50),
		P99NS: rank(0.99),
		MaxNS: samples[len(samples)-1],
	}
}

// WriteTimeline renders the report as a human-readable causal timeline:
// one block per loop, events at millisecond offsets from the loop's
// start, then the reaction-time summary.
func (r *Report) WriteTimeline(w io.Writer) error {
	fmt.Fprintf(w, "loop journals: %d events, %d actors, %d loops (%d complete), %d unscoped\n",
		r.Events, len(r.Actors), len(r.Loops), r.CompleteLoops, r.Unscoped)
	for i := range r.Loops {
		tl := &r.Loops[i]
		status := "incomplete"
		if tl.Complete {
			status = fmt.Sprintf("complete, reaction %.1fms", tl.ReactionNS/1e6)
		}
		fmt.Fprintf(w, "\nloop %s  model=%s v%d<-v%d  (%s)\n", tl.Loop, tl.Model, tl.Version, tl.Parent, status)
		for _, ev := range tl.Events {
			off := float64(ev.WallNS-tl.StartNS) / 1e6
			detail := ""
			switch KindFromString(ev.Kind) {
			case KindDriftFired:
				detail = fmt.Sprintf(" mispredict=%.3f shift=%.3f rows=%d", ev.A, ev.B, ev.Rows)
			case KindRetrainStart:
				detail = fmt.Sprintf(" rows=%d parent=v%d poll=%.1fms label=%.1fms", ev.Rows, ev.Parent, ev.A/1e6, ev.B/1e6)
			case KindRetrainEnd:
				detail = fmt.Sprintf(" train=%.1fms", ev.DurNS/1e6)
			case KindDuel:
				detail = fmt.Sprintf(" champion=%.0fns challenger=%.0fns holdout=%d verdict=%s", ev.A, ev.B, ev.Rows, ev.Peer)
			case KindPublish:
				detail = fmt.Sprintf(" v%d<-v%d", ev.Version, ev.Parent)
			case KindSyncPull:
				detail = fmt.Sprintf(" v%d from %s in %.1fms", ev.Version, ev.Peer, ev.DurNS/1e6)
			case KindClientSwap:
				detail = fmt.Sprintf(" v%d", ev.Version)
			case KindIngest:
				detail = fmt.Sprintf(" rows=%d from v%d", ev.Rows, ev.Version)
			}
			fmt.Fprintf(w, "  %+9.1fms  %-16s %-12s%s\n", off, ev.Kind, ev.Actor, detail)
		}
	}
	if r.Reaction.Count > 0 {
		fmt.Fprintf(w, "\nloop reaction time: p50 %.1fms  p99 %.1fms  max %.1fms  (n=%d)\n",
			r.Reaction.P50NS/1e6, r.Reaction.P99NS/1e6, r.Reaction.MaxNS/1e6, r.Reaction.Count)
		var stages []string
		for s := range r.Stages {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		for _, s := range stages {
			st := r.Stages[s]
			fmt.Fprintf(w, "  stage %-10s p50 %10.1fms  p99 %10.1fms  (n=%d)\n", s, st.P50NS/1e6, st.P99NS/1e6, st.Count)
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return nil
}
