package main

import (
	"context"
	"fmt"
	"time"

	"apollo/internal/core"
	"apollo/internal/drift"
	"apollo/internal/features"
	"apollo/internal/looptrace"
	"apollo/internal/stats"
	"apollo/internal/telemetry"
)

// loopWaterfall reports the loop path's per-layer metrics: the stage
// durations trainer.Result carries and the benchmark's own cycle spans,
// plus direct calls into each stage of a step on the spool the loop
// phase left behind.
func (r *run) loopWaterfall(ctx context.Context, env *environment, lp *loopResult, m metrics) error {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var step, refresh, retrain, duel, publish, reaction, rate []float64
	all := append([]cycle{lp.cold}, lp.cycles...)
	for i, c := range all {
		id := int64(i)
		root := r.spans.add("loop.cycle", id, -1, int64(c.start), int64(c.probed))
		r.spans.add("bench.push_stale", id, root, int64(c.start), int64(c.pushed))
		r.spans.add("bench.reference", id, root, int64(c.pushed), int64(c.calibrated))
		r.spans.add("bench.post_fresh", id, root, int64(c.calibrated), int64(c.posted))
		r.spans.add("trainer.step", id, root, int64(c.posted), int64(c.stepped))
		r.spans.add("client.refresh", id, root, int64(c.stepped), int64(c.refreshed))
		r.spans.add("tuner.probe", id, root, int64(c.refreshed), int64(c.probed))
		if i == 0 {
			continue // the cold cycle is not part of the medians
		}
		reaction = append(reaction, ms(c.probed-c.posted))
		rate = append(rate, float64(lp.window)/(c.stepped-c.posted).Seconds())
		step = append(step, ms(c.stepped-c.posted))
		refresh = append(refresh, ms(c.refreshed-c.stepped))
		retrain = append(retrain, c.res.RetrainNS/1e6)
		duel = append(duel, c.res.DuelNS/1e6)
		publish = append(publish, c.res.PublishNS/1e6)
	}
	n := len(step)
	// The absolute numbers behind loop_reaction_ratio. On a shared host
	// they move by half again with the host's state, so they carry no bound.
	m.set("loop_reaction_ms", stats.Median(reaction), "ms", n)
	m.set("train_rows_per_s", stats.Median(rate), "rows/s", n)
	m.set("trainer.step_ms", stats.Median(step), "ms", n)
	m.set("trainer.retrain_ms", stats.Median(retrain), "ms", n)
	m.set("trainer.duel_ms", stats.Median(duel), "ms", n)
	m.set("trainer.publish_ms", stats.Median(publish), "ms", n)
	m.set("client.refresh_ms", stats.Median(refresh), "ms", n)
	// Per step driven, so the counts repeat exactly however many cycles
	// the time box fitted.
	m.set("trainer.publishes", float64(lp.publishes)/float64(len(all)), "count/step", len(all))
	m.set("trainer.rejects", float64(lp.rejects)/float64(len(all)), "count/step", len(all))

	// A cold poll of the whole spool, then an incremental poll of one
	// cycle's worth of fresh rows, through a cursor of the probe's own.
	cur := telemetry.NewCursor(env.svc.spoolPath(modelLoop))
	start := time.Now()
	frame, err := cur.Poll()
	if err != nil {
		return err
	}
	if frame == nil {
		return fmt.Errorf("the loop spool reads empty")
	}
	m.set("telemetry.cursor_poll_rows_per_s.cold", float64(frame.Len())/time.Since(start).Seconds(), "rows/s", frame.Len())
	r.op(frame.Len() == env.acked[modelLoop], "%s spool: cursor reads %d rows, service acknowledged %d",
		modelLoop, frame.Len(), env.acked[modelLoop])
	if err := env.postRows(ctx, modelLoop, env.loop.rows(freshRows)); err != nil {
		return err
	}
	start = time.Now()
	fresh, err := cur.Poll()
	if err != nil {
		return err
	}
	if fresh == nil || fresh.Len() != freshRows {
		return fmt.Errorf("incremental poll did not return the %d fresh rows", freshRows)
	}
	m.set("telemetry.cursor_poll_rows_per_s.incr", float64(freshRows)/time.Since(start).Seconds(), "rows/s", freshRows)

	// The stages of a step, on the trainer's window: the newest
	// WindowRows rows.
	if over := frame.Len() - r.w.WindowRows; over > 0 {
		idx := make([]int, r.w.WindowRows)
		for i := range idx {
			idx[i] = over + i
		}
		frame = frame.SelectRows(idx)
	}
	schema := features.TableI()
	var set *core.LabeledSet
	var label, check, train []float64
	for i := 0; i < stageCalls; i++ {
		start = time.Now()
		if set, err = core.Label(frame, schema, core.ExecutionPolicy); err != nil {
			return err
		}
		label = append(label, float64(frame.Len())/time.Since(start).Seconds())
		start = time.Now()
		trig := drift.NewDetector(drift.Config{}).Check(env.loop.stale, set)
		check = append(check, ms(time.Since(start)))
		if trig == nil {
			return fmt.Errorf("the drift detector does not fire on the stale champion")
		}
		start = time.Now()
		if _, err := core.Train(set, core.TrainConfig{}); err != nil {
			return err
		}
		train = append(train, ms(time.Since(start)))
	}
	m.set("core.label_rows_per_s", stats.Median(label), "rows/s", stageCalls)
	m.set("drift.check_ms", stats.Median(check), "ms", stageCalls)
	m.set("core.train_ms", stats.Median(train), "ms", stageCalls)

	tracer := looptrace.New("bench", looptrace.Options{})
	calls := probeCalls
	m.set("looptrace.emit_ns", probeNS(calls, nil, func() {
		for i := 0; i < calls; i++ {
			tracer.Emit(looptrace.KindIngest, modelLoop, "", looptrace.Fields{Rows: int64(i)})
		}
	}), "ns", probeRounds*calls)
	return nil
}

// stageCalls is how many times the loop waterfall calls each stage of a
// step directly; a stage on the 100k-row window takes tenths of a second.
const stageCalls = 5
