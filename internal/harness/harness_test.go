package harness

import (
	"bytes"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/raja"
)

// testRunner builds a quick-mode runner writing into buf.
func testRunner(buf *bytes.Buffer) *Runner {
	return NewRunner(Options{Out: buf, Quick: true, Seed: 5})
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"fig1", "fig2", "fig4", "table1", "table2", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "table3", "table4",
		"abl-machine", "abl-classifier", "abl-noise"}
	if len(ids) != len(want) {
		t.Fatalf("got %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("experiment %d = %s, want %s", i, ids[i], id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := testRunner(&buf).Run("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRecordCachesAcrossCalls(t *testing.T) {
	var buf bytes.Buffer
	r := testRunner(&buf)
	d1, err := r.record("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.record("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("recording not cached")
	}
	if d1.all.Len() == 0 {
		t.Error("no samples recorded")
	}
	if len(d1.perProblem) != 1 {
		t.Errorf("LULESH should have 1 problem, got %d", len(d1.perProblem))
	}
}

func TestSweepRecorderCoversVariantGrid(t *testing.T) {
	var buf bytes.Buffer
	r := testRunner(&buf)
	d, err := r.record("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	polIdx := d.all.MustCol(core.ColPolicy)
	chunkIdx := d.all.MustCol(core.ColChunk)
	seen := map[[2]float64]bool{}
	for i := 0; i < d.all.Len(); i++ {
		row := d.all.Row(i)
		seen[[2]float64{row[polIdx], row[chunkIdx]}] = true
	}
	if len(seen) != len(Variants()) {
		t.Errorf("saw %d variants, want %d", len(seen), len(Variants()))
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	r := testRunner(&buf)
	schema := r.deckFreeSchema()
	for _, appName := range []string{"LULESH", "CleverLeaf", "ARES"} {
		polSet, err := r.labeled(appName, core.ExecutionPolicy, schema)
		if err != nil {
			t.Fatal(err)
		}
		polCV, err := core.CrossValidate(polSet, r.opts.Folds, r.opts.Seed, core.TrainConfig{})
		if err != nil {
			t.Fatal(err)
		}
		chunkSet, err := r.labeled(appName, core.ChunkSize, schema)
		if err != nil {
			t.Fatal(err)
		}
		chunkCV, err := core.CrossValidate(chunkSet, r.opts.Folds, r.opts.Seed, core.TrainConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// The paper's central accuracy contrast: policy models strong,
		// chunk models weak.
		if polCV.MeanAccuracy < 0.85 {
			t.Errorf("%s policy accuracy %.2f below 0.85", appName, polCV.MeanAccuracy)
		}
		if chunkCV.MeanAccuracy > 0.60 {
			t.Errorf("%s chunk accuracy %.2f suspiciously high (paper: 21-38%%)", appName, chunkCV.MeanAccuracy)
		}
		if polCV.MeanAccuracy <= chunkCV.MeanAccuracy {
			t.Errorf("%s: policy model must beat chunk model", appName)
		}
	}
}

func TestFig11SpeedupShape(t *testing.T) {
	var buf bytes.Buffer
	r := testRunner(&buf)
	for _, appName := range []string{"CleverLeaf", "ARES"} {
		desc, err := AppByName(appName)
		if err != nil {
			t.Fatal(err)
		}
		model, _, err := r.policyModel(appName)
		if err != nil {
			t.Fatal(err)
		}
		size := desc.TrainSizes[0]
		steps := r.stepsFor(desc)
		problem := desc.Problems[0]
		if appName == "ARES" {
			problem = "sedov"
		}
		def, err := r.timedRun(desc, problem, size, steps, defaultHooksFactory(desc))
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := r.timedRun(desc, problem, size, steps, tunedHooksFactory(r, desc, model))
		if err != nil {
			t.Fatal(err)
		}
		speedup := def / tuned
		if speedup <= 1.0 {
			t.Errorf("%s: Apollo did not beat the default (%.2fx)", appName, speedup)
		}
		if appName == "ARES" && speedup > 2.0 {
			t.Errorf("ARES speedup %.2fx implausibly high: unported physics should dilute it", speedup)
		}
	}
}

func TestPolicyModelIsReducedConfiguration(t *testing.T) {
	var buf bytes.Buffer
	r := testRunner(&buf)
	model, _, err := r.policyModel("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	if model.Schema.Len() != 5 {
		t.Errorf("deployment model has %d features, want 5", model.Schema.Len())
	}
	if model.Tree.Depth() > 15 {
		t.Errorf("deployment model depth %d exceeds 15", model.Tree.Depth())
	}
}

func TestSelectedExperimentsRunAndReport(t *testing.T) {
	var buf bytes.Buffer
	r := testRunner(&buf)
	for _, id := range []string{"table1", "fig4", "fig8", "table4"} {
		buf.Reset()
		if err := r.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestFig4EmitsTreeAndCode(t *testing.T) {
	var buf bytes.Buffer
	r := testRunner(&buf)
	if err := r.Run("fig4"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"if num_indices <= ", "raja.SeqExec", "raja.OmpParallelForExec"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}

func TestScalingRunFasterWithApolloAtScale(t *testing.T) {
	var buf bytes.Buffer
	r := testRunner(&buf)
	desc, _ := AppByName("CleverLeaf")
	model, _, err := r.policyModel("CleverLeaf")
	if err != nil {
		t.Fatal(err)
	}
	def, err := r.scalingRun(desc, "sedov", 64, 4, 64, defaultHooksFactory(desc))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := r.scalingRun(desc, "sedov", 64, 4, 64, tunedHooksFactory(r, desc, model))
	if err != nil {
		t.Fatal(err)
	}
	if tuned >= def {
		t.Errorf("64-rank Apollo (%g) should beat default (%g)", tuned, def)
	}
}

func TestVariantsMatchPaperGrid(t *testing.T) {
	vs := Variants()
	if len(vs) != 2+len(raja.ChunkSizes) {
		t.Fatalf("got %d variants", len(vs))
	}
	if vs[0].Policy != raja.SeqExec || vs[1].Policy != raja.OmpParallelForExec {
		t.Error("first two variants must be the two policies")
	}
}

func TestKernelNamesHaveNoCollisions(t *testing.T) {
	names := kernelNames()
	// All three apps' kernels must be distinguishable by their encoded
	// func feature.
	if len(names) < 55 {
		t.Errorf("only %d distinct kernel codes: possible hash collision", len(names))
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite takes several seconds")
	}
	var buf bytes.Buffer
	r := testRunner(&buf)
	if err := r.Run("all"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range Experiments() {
		if !strings.Contains(out, "=== "+e.ID+" ") {
			t.Errorf("experiment %s missing from combined output", e.ID)
		}
	}
}
