package apollo_test

// End-to-end test of the model service: record a simulated LULESH run,
// train a model, push it to a disk-backed serving daemon, drive the
// application through a tuner wired to the serving client, then push a
// retrained model mid-run and watch the running tuner's decisions change
// — no restart, no locks on the launch path.

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"apollo/internal/app"
	"apollo/internal/bg"
	"apollo/internal/bg/bgtest"
	"apollo/internal/caliper"
	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/server"
	"apollo/internal/tuner"
)

// trainOmpEverywhereModel fabricates a retrained model under which the
// parallel variant wins at every size — distinguishable from the real
// recorded model, which sends small launches to sequential execution.
func trainOmpEverywhereModel(t *testing.T, schema *features.Schema) *core.Model {
	t.Helper()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 256, 2048, 16384, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			if pol == raja.SeqExec {
				row[schema.Len()+2] = float64(n) * 100
			} else {
				row[schema.Len()+2] = float64(n)
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelServiceHotSwapEndToEnd(t *testing.T) {
	bgtest.NoLeaks(t)
	schema := features.TableI()
	machine := platform.SandyBridgeNode()
	desc := descFor(t, "LULESH")
	const modelName = "lulesh/execution_policy"

	// 1. Record: one simulated LULESH run per execution policy.
	all := dataset.NewFrame(core.RecordColumns(schema)...)
	for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
		ann := caliper.New()
		rec := tuner.NewRecorder(schema, ann)
		clk := platform.NewSimClock(machine, 0.05, 2)
		ctx := raja.NewSimContext(clk, raja.Params{Policy: pol})
		ctx.Observe = rec.Observe
		sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			sim.Step()
		}
		all.Append(rec.Frame())
	}

	// 2. Train the v1 model from the recording.
	set, err := core.Label(all, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// 3. Serve: a disk-backed registry behind the HTTP API.
	dir := t.TempDir()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg).Handler())
	defer ts.Close()

	// 4. Push v1 the way apollo-train -push does.
	c := client.New(ts.URL, client.Options{})
	if v, err := c.Push(modelName, v1); err != nil || v != 1 {
		t.Fatalf("push v1: version=%d err=%v", v, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "lulesh", "execution_policy.v1.json")); err != nil {
		t.Fatalf("published model not persisted: %v", err)
	}

	// 5. The application process: a tuner reading models through the
	// serving client, with background polling for upgrades.
	src := client.NewSource(c, schema, modelName, "")
	if err := src.Refresh(); err != nil {
		t.Fatal(err)
	}
	tn := tuner.NewTuner(schema, caliper.New(), desc.DefaultParams).UseSource(src)
	pollCtx, pollCancel := context.WithCancel(context.Background())
	pollDone := bg.New(pollCtx, nil).Every("model-poll", 2*time.Millisecond, false, src.Refresh)
	defer func() { pollCancel(); <-pollDone }()

	// The v1 model sends a tiny launch to sequential execution; the
	// retrained model will not. This probe is the observable difference.
	probe := func() raja.Policy {
		p, ok := tn.Begin(raja.NewKernel("probe", nil), raja.NewRange(0, 8))
		if !ok {
			t.Fatal("tuner declined the probe launch")
		}
		return p.Policy
	}
	if got := probe(); got != raja.SeqExec {
		t.Fatalf("v1 probe policy = %v, want seq", got)
	}

	runSteps := func(n int) {
		ann := caliper.New()
		clk := platform.NewSimClock(machine, 0, 0)
		ctx := raja.NewSimContext(clk, desc.DefaultParams)
		ctx.Hooks = tn
		sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			sim.Step()
		}
	}
	runSteps(2)
	midRunDecisions := tn.Decisions()

	// 6. Mid-run upgrade: the training side pushes a retrained model. The
	// poller must install it into the live tuner without a restart.
	v2 := trainOmpEverywhereModel(t, schema)
	if v, err := c.Push(modelName, v2); err != nil || v != 2 {
		t.Fatalf("push v2: version=%d err=%v", v, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for src.Swaps() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if src.Swaps() < 2 {
		t.Fatal("poller never picked up the v2 model")
	}
	if got := probe(); got != raja.OmpParallelForExec {
		t.Fatalf("post-upgrade probe policy = %v, want omp (model not swapped)", got)
	}
	if cached := c.Cached(modelName); cached == nil || cached.Version != 2 {
		t.Errorf("client cache did not advance to v2: %+v", cached)
	}

	// 7. The same tuner keeps running — same process, new model.
	runSteps(2)
	if tn.Decisions() <= midRunDecisions {
		t.Error("tuner stopped deciding after the swap")
	}
}
