package apollo_test

// End-to-end test of the closed training loop: a LULESH run starts on a
// stale model (parallel everywhere), the live tuner records sampled
// telemetry with exploration flips and uploads it to the service's
// spool, the continuous trainer detects the mispredicts, retrains a
// challenger on the spooled window, the challenger wins the holdout duel
// and is published — and the running tuner hot-swaps to it mid-run, so
// small launches flip from omp to seq with no restart. This is the
// paper's workflow running as a loop instead of a one-shot pipeline.

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
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/telemetry"
	"apollo/internal/trainer"
	"apollo/internal/tuner"
)

func TestClosedLoopRetrainsAndHotSwapsMidRun(t *testing.T) {
	bgtest.NoLeaks(t)
	runClosedLoopScenario(t)
}

// runClosedLoopScenario drives one full closed-loop pass. It is shared
// with the scheduler stress test, which re-runs it under -race with a
// GOMAXPROCS sweep to shake out interleavings between the tuner's
// launch path, the source poller, the uploader, and the trainer.
func runClosedLoopScenario(t *testing.T) {
	schema := features.TableI()
	machine := platform.SandyBridgeNode()
	desc := descFor(t, "LULESH")
	const modelName = "lulesh/execution_policy"

	// Service with telemetry ingestion enabled.
	regDir, spoolDir := t.TempDir(), t.TempDir()
	reg, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.WithTelemetryDir(spoolDir))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Deploy a stale champion: omp wins everywhere (wrong for the many
	// small kernels a size-10 LULESH run launches).
	c := client.New(ts.URL, client.Options{})
	if v, err := c.Push(modelName, trainOmpEverywhereModel(t, schema)); err != nil || v != 1 {
		t.Fatalf("push stale champion: version=%d err=%v", v, err)
	}

	// The application process: tuner + model source + telemetry capture
	// + uploader, exactly as apollo-tune wires them.
	ann := caliper.New()
	src := client.NewSource(c, schema, modelName, "")
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	pollCtx, pollCancel := context.WithCancel(context.Background())
	pollDone := bg.New(pollCtx, nil).Every("model-poll", 2*time.Millisecond, false, src.Refresh)
	defer func() { pollCancel(); <-pollDone }()

	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{SampleEvery: 1, Capacity: 1 << 16})
	up := client.NewUploader(c, modelName, rec, client.UploaderOptions{MaxPending: 1 << 17})
	upCtx, upCancel := context.WithCancel(context.Background())
	upDone := bg.New(upCtx, nil).Every("telemetry-upload", 2*time.Millisecond, true, up.Flush)
	defer func() { upCancel(); <-upDone }()

	tn := tuner.NewTuner(schema, ann, desc.DefaultParams).
		UseSource(src).
		UseTelemetry(rec).
		ExploreEvery(4)

	probe := func() raja.Policy {
		p, ok := tn.Begin(raja.NewKernel("probe", nil), raja.NewRange(0, 8))
		if !ok {
			t.Fatal("tuner declined the probe launch")
		}
		return p.Policy
	}
	// Probe until the exploration cadence is off the flip: 2 tries max.
	stableProbe := func() raja.Policy {
		a, b := probe(), probe()
		if a == b {
			return a
		}
		return probe()
	}
	if got := stableProbe(); got != raja.OmpParallelForExec {
		t.Fatalf("stale-champion probe policy = %v, want omp", got)
	}

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
	if rec.Dropped() != 0 {
		t.Errorf("telemetry ring dropped %d samples", rec.Dropped())
	}
	if up.Rows() == 0 {
		t.Fatal("no telemetry reached the service")
	}
	if tn.Explored() == 0 {
		t.Fatal("exploration never fired; telemetry carries no counterfactuals")
	}

	// Freeze the spool: everything the trainer should see is shipped, so
	// stop the uploader now. Left running, it races the post-swap
	// launches' rows into the window between the two trainer steps, and
	// their advanced sim-time feature can legitimately re-trigger the
	// shift detector — a schedule-dependent flap, not the regression the
	// final assertion is after.
	upCancel()
	<-upDone

	// The continuous trainer tails the spool the service wrote.
	tr, err := trainer.New(
		telemetry.NewCursor(filepath.Join(spoolDir, "lulesh", "execution_policy")),
		trainer.NewClientPublisher(client.New(ts.URL, client.Options{})),
		trainer.Config{
			Name:   modelName,
			Schema: schema,
			Drift:  drift.Config{MinRows: 4},
			Logf:   t.Logf,
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.NewRows == 0 {
		t.Fatal("trainer saw no spooled rows")
	}
	if res.Trigger == nil || res.Trigger.Reason != "mispredict" {
		t.Fatalf("drift trigger = %v, want mispredict (stale champion)", res.Trigger)
	}
	if !res.Retrained || !res.Published || res.Version != 2 {
		t.Fatalf("retrain step = %+v, want published v2", res)
	}
	if res.ChallengerNS > res.ChampionNS {
		t.Errorf("published challenger %.0fns regressed champion %.0fns", res.ChallengerNS, res.ChampionNS)
	}

	// The running tuner's poller must pick the challenger up and flip
	// live decisions — the loop is closed.
	deadline := time.Now().Add(10 * time.Second)
	for src.Swaps() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if src.Swaps() < 2 {
		t.Fatal("running tuner never swapped to the retrained model")
	}
	if got := stableProbe(); got != raja.SeqExec {
		t.Fatalf("post-retrain probe policy = %v, want seq", got)
	}

	// Same process keeps launching on the new model.
	decisions := tn.Decisions()
	for i := 0; i < 2; i++ {
		sim.Step()
	}
	if tn.Decisions() <= decisions {
		t.Error("tuner stopped deciding after the swap")
	}

	// A second trainer step on the same telemetry must not flap: the new
	// champion agrees with the window.
	res, err = tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Published {
		t.Errorf("trainer flapped: republished on unchanged telemetry: %+v", res)
	}
}
