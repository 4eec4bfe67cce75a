package flight

import (
	"fmt"

	"apollo/internal/raja"
	"apollo/internal/trace"
)

// TraceEvents converts flight records into trace events suitable for
// trace.WriteChromeTrace, on a timeline rebased so the earliest span
// starts at 0.
//
// Each record becomes an execution span named after its site (sequential
// and parallel picks land on separate tracks, as in the launch tracer),
// annotated with the decision provenance: predicted class,
// predicted-vs-observed runtime, exploration flag. Records with phase
// timings additionally produce a "decision" span for the tuning overhead
// (feature extraction + model evaluation), placed immediately before the
// execution span it parameterized — the timing is re-measured at launch
// end, so the placement is presentational, not a measurement of when the
// phases ran.
func TraceEvents(recs []Record) []trace.Event {
	if len(recs) == 0 {
		return nil
	}
	base := recs[0].TimeNS
	for i := range recs {
		rec := &recs[i]
		start := rec.TimeNS - int64(rec.ObservedNS+rec.FeatureNS+rec.ModelNS)
		if start < base {
			base = start
		}
	}
	events := make([]trace.Event, 0, 2*len(recs))
	for i := range recs {
		rec := &recs[i]
		name := rec.SiteName()
		if name == "" {
			name = fmt.Sprintf("site-%#x", rec.Site)
		}
		params := raja.Params{Policy: raja.Policy(rec.Policy), Chunk: int(rec.Chunk)}
		execStart := rec.TimeNS - int64(rec.ObservedNS)
		events = append(events, trace.Event{
			Kernel:     name,
			StartNS:    float64(execStart - base),
			DurationNS: rec.ObservedNS,
			Iterations: int(rec.Iterations),
			Params:     params,
			Args: map[string]string{
				"seq":          fmt.Sprintf("%d", rec.Seq),
				"predicted":    fmt.Sprintf("%d", rec.Predicted),
				"predicted_ns": fmt.Sprintf("%.0f", rec.PredictedNS),
				"explored":     fmt.Sprintf("%t", rec.Explored),
			},
		})
		if overhead := rec.FeatureNS + rec.ModelNS; overhead > 0 {
			events = append(events, trace.Event{
				Kernel:     name + " decision",
				Cat:        "decision",
				StartNS:    float64(execStart-base) - overhead,
				DurationNS: overhead,
				Iterations: int(rec.Iterations),
				Params:     params,
				Args: map[string]string{
					"seq":        fmt.Sprintf("%d", rec.Seq),
					"feature_ns": fmt.Sprintf("%.0f", rec.FeatureNS),
					"model_ns":   fmt.Sprintf("%.0f", rec.ModelNS),
				},
			})
		}
	}
	return events
}
