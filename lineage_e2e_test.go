package apollo_test

// End-to-end test of closed-loop lineage tracing: every process in the
// loop — the serving replica, the continuous trainer, a syncing peer
// replica, and the live tuner — journals loop events into one directory,
// and the stitcher must reassemble them into a single complete timeline
// for the retrain cycle: drift fires on a stale champion, a challenger
// is trained, duels, publishes with a lineage block, the peer replica
// pulls it, the running tuner hot-swaps to it, and post-swap telemetry
// arrives attributed to the new version. The lineage chain (parent
// version, loop ID) must be unbroken across all of it.

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"apollo/internal/app"
	"apollo/internal/bg"
	"apollo/internal/bg/bgtest"
	"apollo/internal/caliper"
	"apollo/internal/client"
	"apollo/internal/drift"
	"apollo/internal/features"
	"apollo/internal/fleet"
	"apollo/internal/looptrace"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/telemetry"
	"apollo/internal/trainer"
	"apollo/internal/tuner"
)

func TestClosedLoopLineageChain(t *testing.T) {
	bgtest.NoLeaks(t)
	schema := features.TableI()
	machine := platform.SandyBridgeNode()
	desc := descFor(t, "LULESH")
	const modelName = "lulesh/execution_policy"

	// Every process journals into the same directory under its own
	// actor-named file, the way a single-node fleet smoke runs.
	journalDir := t.TempDir()
	newTracer := func(actor string) *looptrace.Tracer {
		tr := looptrace.New(actor, looptrace.Options{})
		if err := tr.OpenJournal(journalDir); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	trServe := newTracer("serve:r1")
	trTrain := newTracer("traind")
	trPeer := newTracer("serve:r2")
	trTune := newTracer("tune")

	// Primary replica: registry + ingestion + loop tracing.
	regDir, spoolDir := t.TempDir(), t.TempDir()
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.WithTelemetryDir(spoolDir), server.WithLoopTrace(trServe))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Stale champion (no lineage: a hand publish predates the loop).
	c := client.New(ts.URL, client.Options{})
	if v, err := c.Push(modelName, trainOmpEverywhereModel(t, schema)); err != nil || v != 1 {
		t.Fatalf("push stale champion: version=%d err=%v", v, err)
	}

	// The application process, with swap tracing and batch attribution.
	ann := caliper.New()
	src := client.NewSource(c, schema, modelName, "")
	src.SetTrace(trTune)
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	pollCtx, pollCancel := context.WithCancel(context.Background())
	pollDone := bg.New(pollCtx, nil).Every("model-poll", 2*time.Millisecond, false, src.Refresh)
	defer func() { pollCancel(); <-pollDone }()

	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1, Capacity: 1 << 16})
	up := client.NewUploader(c, modelName, rec, client.UploaderOptions{MaxPending: 1 << 17, Attribution: src.Running})
	upCtx, upCancel := context.WithCancel(context.Background())
	upDone := bg.New(upCtx, nil).Every("telemetry-upload", 2*time.Millisecond, true, up.Flush)
	defer func() { upCancel(); <-upDone }()

	tn := tuner.NewTuner(schema, ann, desc.DefaultParams).
		UseSource(src).
		UseTelemetry(rec).
		ExploreEvery(4)
	clk := platform.NewSimClock(machine, 0.05, 7)
	ctx := raja.NewSimContext(clk, desc.DefaultParams)
	ctx.Hooks = tn
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		sim.Step()
	}
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}
	// Freeze the background uploader so the trainer window is stable
	// (see the closed-loop e2e test for why); direct flushes still work.
	upCancel()
	<-upDone

	// Continuous trainer with loop tracing and a lineage identity.
	tr, err := trainer.New(
		telemetry.NewCursor(filepath.Join(spoolDir, "lulesh", "execution_policy")),
		trainer.NewClientPublisher(client.New(ts.URL, client.Options{})),
		trainer.Config{
			Name:   modelName,
			Schema: schema,
			Drift:  drift.Config{MinRows: 4},
			ID:     "traind-e2e",
			Trace:  trTrain,
			Logf:   t.Logf,
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trigger == nil || !res.Published || res.Version != 2 {
		t.Fatalf("retrain step = %+v, want drift-published v2", res)
	}
	if res.LoopID == "" || res.ParentVersion != 1 {
		t.Fatalf("step carries loop=%q parent=%d, want a loop ID and parent 1", res.LoopID, res.ParentVersion)
	}

	// The published envelope must carry the lineage block end to end.
	got, err := c.Fetch(modelName)
	if err != nil {
		t.Fatal(err)
	}
	lin := got.Lineage
	if lin == nil {
		t.Fatal("fetched v2 envelope has no lineage block")
	}
	if lin.LoopID != res.LoopID || lin.ParentVersion != 1 || lin.Trainer != "traind-e2e" {
		t.Fatalf("lineage = %+v, want loop %s parent 1 trainer traind-e2e", lin, res.LoopID)
	}
	if lin.DriftReason != "mispredict" || lin.DuelChampionNS <= 0 || lin.DuelChallengerNS <= 0 {
		t.Fatalf("lineage drift/duel snapshot incomplete: %+v", lin)
	}
	if lin.WindowRows <= 0 || lin.HoldoutRows <= 0 || lin.SampleCounts["local"] <= 0 {
		t.Fatalf("lineage training-window snapshot incomplete: %+v", lin)
	}

	// A peer replica pulls the new version; provenance must survive the
	// raw-envelope hop byte for byte.
	reg2, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sn := fleet.NewSyncer(reg2, []fleet.Peer{{ID: "r1", Base: ts.URL}},
		fleet.SyncerOptions{Logf: t.Logf, Trace: trPeer})
	if n := sn.SyncOnce(); n != 1 {
		t.Fatalf("peer sync pulled %d models, want 1", n)
	}
	e2, ok := reg2.Get(modelName)
	if !ok || e2.Lineage == nil || e2.Lineage.LoopID != res.LoopID {
		t.Fatalf("peer replica entry lineage = %+v, want loop %s", e2.Lineage, res.LoopID)
	}

	// The running tuner hot-swaps to v2 (client-swap event, same loop).
	deadline := time.Now().Add(10 * time.Second)
	for src.Swaps() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if src.Swaps() < 2 {
		t.Fatal("running tuner never swapped to the retrained model")
	}

	// Post-swap telemetry closes the attribution leg: the next batch is
	// stamped with v2 and the loop ID.
	sim.Step()
	if err := up.Flush(); err != nil {
		t.Fatal(err)
	}

	// Stitch all four journals into the causal timeline.
	for _, tr := range []*looptrace.Tracer{trServe, trTrain, trPeer, trTune} {
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	events, err := looptrace.ReadJournalDir(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	rep := looptrace.Stitch(events)
	var loop *looptrace.LoopTimeline
	for i := range rep.Loops {
		if rep.Loops[i].Loop == res.LoopID {
			loop = &rep.Loops[i]
		}
	}
	if loop == nil {
		t.Fatalf("stitched report has no timeline for loop %s (loops: %d)", res.LoopID, len(rep.Loops))
	}
	if !loop.Complete || !loop.Drift {
		t.Fatalf("loop %s complete=%v drift=%v, want a complete drift loop", res.LoopID, loop.Complete, loop.Drift)
	}
	if loop.Version != 2 || loop.Parent != 1 {
		t.Fatalf("loop published v%d<-v%d, want v2<-v1", loop.Version, loop.Parent)
	}
	if loop.ReactionNS <= 0 {
		t.Fatalf("loop reaction time = %.0fns, want > 0", loop.ReactionNS)
	}
	kinds := map[string][]string{} // kind -> actors that emitted it
	for _, ev := range loop.Events {
		kinds[ev.Kind] = append(kinds[ev.Kind], ev.Actor)
	}
	for kind, wantActor := range map[string]string{
		"drift-fired":      "traind",
		"retrain-start":    "traind",
		"retrain-end":      "traind",
		"duel":             "traind",
		"publish":          "serve:r1",
		"sync-pull":        "serve:r2",
		"client-swap":      "tune",
		"telemetry-ingest": "serve:r1",
	} {
		found := false
		for _, actor := range kinds[kind] {
			if actor == wantActor {
				found = true
			}
		}
		if !found {
			t.Errorf("loop %s missing %s from %s (have %v)", res.LoopID, kind, wantActor, kinds[kind])
		}
	}
	for _, stage := range []string{"detect", "retrain", "publish", "swap", "total"} {
		if loop.Stages[stage] <= 0 {
			t.Errorf("stage %q = %.0fns, want > 0 (stages: %v)", stage, loop.Stages[stage], loop.Stages)
		}
	}
	if rep.Reaction.Count == 0 || rep.Reaction.P99NS <= 0 {
		t.Errorf("report reaction stats empty: %+v", rep.Reaction)
	}
}
