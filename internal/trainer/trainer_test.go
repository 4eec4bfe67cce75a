package trainer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/drift"
	"apollo/internal/dtree"
	"apollo/internal/features"
	"apollo/internal/looptrace"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/telemetry"
)

// obs is one observed feature vector with measured runtimes per policy.
type obs struct {
	n            float64
	seqNS, ompNS float64
}

// telemetryRows converts observations into capture-layout rows (one row
// per policy, so every vector carries its counterfactual).
func telemetryRows(schema *features.Schema, observations []obs) (cols []string, rows [][]float64) {
	cols = core.RecordColumns(schema)
	ni := schema.Index(features.NumIndices)
	for _, o := range observations {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, len(cols))
			row[ni] = o.n
			row[len(cols)-3] = float64(pol)
			if pol == raja.SeqExec {
				row[len(cols)-1] = o.seqNS
			} else {
				row[len(cols)-1] = o.ompNS
			}
			rows = append(rows, row)
		}
	}
	return cols, rows
}

func appendObs(t *testing.T, dir string, observations []obs) {
	t.Helper()
	sp, err := telemetry.OpenSpool(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows := telemetryRows(features.TableI(), observations)
	if err := sp.Append(cols, rows); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

func trainModel(t *testing.T, observations []obs) *core.Model {
	t.Helper()
	schema := features.TableI()
	cols, rows := telemetryRows(schema, observations)
	frame := dataset.NewFrame(cols...)
	for _, r := range rows {
		frame.AddRow(r)
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

// crossover: seq wins below ~914 indices, omp above.
func crossover(ns ...float64) []obs {
	var out []obs
	for _, n := range ns {
		out = append(out, obs{n: n, seqNS: n * 10, ompNS: 8000 + n*10/8})
	}
	return out
}

func newTrainer(t *testing.T, dir string, pub Publisher, cfg Config) *Trainer {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "app/policy"
	}
	if cfg.Schema == nil {
		cfg.Schema = features.TableI()
	}
	tr, err := New(telemetry.NewCursor(dir), pub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrainerBootstrapsFirstChampion(t *testing.T) {
	dir := t.TempDir()
	reg := registry.New()
	tr := newTrainer(t, dir, NewRegistryPublisher(reg), Config{})

	// Empty spool: clean no-op.
	res, err := tr.Step()
	if err != nil || res.NewRows != 0 || res.Published {
		t.Fatalf("empty step = %+v, %v", res, err)
	}

	appendObs(t, dir, crossover(32, 256, 2048, 16384, 131072))
	res, err = tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published || !res.Retrained || res.Version != 1 {
		t.Fatalf("bootstrap step = %+v", res)
	}
	e, ok := reg.Get("app/policy")
	if !ok || e.Version != 1 {
		t.Fatalf("registry after bootstrap: %+v ok=%v", e, ok)
	}
	// The bootstrapped model learned the crossover.
	proj := e.Model.NewProjector(features.TableI())
	x := make([]float64, features.TableI().Len())
	x[features.TableI().Index(features.NumIndices)] = 64
	if proj.Predict(x) != int(raja.SeqExec) {
		t.Error("bootstrapped model picks omp for 64 indices")
	}

	// No new rows: nothing happens, champion stays.
	res, err = tr.Step()
	if err != nil || res.Published || res.Trigger != nil {
		t.Fatalf("idle step = %+v, %v", res, err)
	}
	if tr.Publishes() != 1 {
		t.Errorf("publishes = %d", tr.Publishes())
	}
}

func TestTrainerRetrainsOnDriftAndPublishes(t *testing.T) {
	dir := t.TempDir()
	reg := registry.New()
	// Stale champion: trained when omp won everywhere.
	var ompWins []obs
	for _, n := range []float64{32, 256, 2048, 16384, 131072} {
		ompWins = append(ompWins, obs{n: n, seqNS: n * 100, ompNS: n})
	}
	if _, err := reg.Publish("app/policy", trainModel(t, ompWins)); err != nil {
		t.Fatal(err)
	}

	tr := newTrainer(t, dir, NewRegistryPublisher(reg), Config{
		Drift: drift.Config{MinRows: 4},
	})
	// The machine now shows the true crossover: small kernels want seq.
	appendObs(t, dir, crossover(32, 64, 128, 16384, 131072))
	res, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trigger == nil || res.Trigger.Reason != "mispredict" {
		t.Fatalf("trigger = %v", res.Trigger)
	}
	if !res.Retrained || !res.Published || res.Version != 2 {
		t.Fatalf("retrain step = %+v", res)
	}
	if res.ChallengerNS > res.ChampionNS {
		t.Errorf("challenger %.0fns regressed champion %.0fns", res.ChallengerNS, res.ChampionNS)
	}
	if tr.Triggers() != 1 || tr.Retrains() != 1 || tr.Publishes() != 1 || tr.Rejects() != 0 {
		t.Errorf("counters: triggers=%d retrains=%d publishes=%d rejects=%d",
			tr.Triggers(), tr.Retrains(), tr.Publishes(), tr.Rejects())
	}
	e, _ := reg.Get("app/policy")
	proj := e.Model.NewProjector(features.TableI())
	x := make([]float64, features.TableI().Len())
	x[features.TableI().Index(features.NumIndices)] = 64
	if proj.Predict(x) != int(raja.SeqExec) {
		t.Error("published challenger still picks omp for 64 indices")
	}
}

func TestTrainerRejectsWorseChallenger(t *testing.T) {
	dir := t.TempDir()
	reg := registry.New()
	// Champion: always-omp (trained when omp won everywhere).
	var ompWins []obs
	for _, n := range []float64{10, 30, 50, 70, 90, 110} {
		ompWins = append(ompWins, obs{n: n, seqNS: n * 100, ompNS: n})
	}
	if _, err := reg.Publish("app/policy", trainModel(t, ompWins)); err != nil {
		t.Fatal(err)
	}

	// New telemetry: seq is marginally faster on six interleaved sizes
	// (champion mispredicts them -> drift fires), while omp remains
	// vastly faster on four others. A depth-1 challenger cannot separate
	// the interleaved classes and inherits the catastrophic seq picks,
	// so the holdout duel must keep the champion.
	window := []obs{
		{n: 10, seqNS: 1, ompNS: 2}, {n: 30, seqNS: 1, ompNS: 2},
		{n: 50, seqNS: 1, ompNS: 2}, {n: 70, seqNS: 1, ompNS: 2},
		{n: 90, seqNS: 1, ompNS: 2}, {n: 110, seqNS: 1, ompNS: 2},
		{n: 20, seqNS: 10000, ompNS: 100}, {n: 40, seqNS: 10000, ompNS: 100},
		{n: 60, seqNS: 10000, ompNS: 100}, {n: 80, seqNS: 10000, ompNS: 100},
	}
	appendObs(t, dir, window)
	tr := newTrainer(t, dir, NewRegistryPublisher(reg), Config{
		Drift: drift.Config{MinRows: 4},
		Train: core.TrainConfig{Tree: dtree.Config{MaxDepth: 1}},
	})
	res, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trigger == nil {
		t.Fatal("drift did not fire")
	}
	if !res.Retrained || res.Published {
		t.Fatalf("gate failed: %+v", res)
	}
	if res.ChallengerNS <= res.ChampionNS {
		t.Fatalf("test premise broken: challenger %.0fns vs champion %.0fns",
			res.ChallengerNS, res.ChampionNS)
	}
	if tr.Rejects() != 1 || tr.Publishes() != 0 {
		t.Errorf("counters: rejects=%d publishes=%d", tr.Rejects(), tr.Publishes())
	}
	if e, _ := reg.Get("app/policy"); e.Version != 1 {
		t.Errorf("registry advanced to v%d despite rejection", e.Version)
	}
}

// errPublisher is an incumbent whose replica is unreachable.
type errPublisher struct{}

func (errPublisher) Champion(string) (*core.Model, int, error) {
	return nil, 0, fmt.Errorf("dial tcp: connection refused")
}
func (errPublisher) Publish(string, *core.Model, *core.Lineage) (int, error) {
	return 0, fmt.Errorf("dial tcp: connection refused")
}

func TestTrainerIncumbentVetoesBootstrap(t *testing.T) {
	dir := t.TempDir()
	local := registry.New()
	// Another replica already holds a full-depth champion that separates
	// the interleaved classes perfectly.
	incumbent := registry.New()
	window := []obs{
		{n: 10, seqNS: 1, ompNS: 50}, {n: 30, seqNS: 1, ompNS: 50},
		{n: 50, seqNS: 1, ompNS: 50}, {n: 70, seqNS: 1, ompNS: 50},
		{n: 90, seqNS: 1, ompNS: 50}, {n: 110, seqNS: 1, ompNS: 50},
		{n: 20, seqNS: 10000, ompNS: 100}, {n: 40, seqNS: 10000, ompNS: 100},
		{n: 60, seqNS: 10000, ompNS: 100}, {n: 80, seqNS: 10000, ompNS: 100},
	}
	if _, err := incumbent.Publish("app/policy", trainModel(t, window)); err != nil {
		t.Fatal(err)
	}

	// The local replica has no champion and can only train a depth-1
	// bootstrap, which cannot separate the interleaved classes: the fleet
	// incumbent must veto it so the syncer bootstraps this replica
	// instead.
	appendObs(t, dir, window)
	tr := newTrainer(t, dir, NewRegistryPublisher(local), Config{
		Train:      core.TrainConfig{Tree: dtree.Config{MaxDepth: 1}},
		Incumbents: []Publisher{NewRegistryPublisher(incumbent)},
	})
	res, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Retrained || !res.Vetoed || res.Published {
		t.Fatalf("veto step = %+v", res)
	}
	if tr.Vetoes() != 1 || tr.Publishes() != 0 {
		t.Errorf("counters: vetoes=%d publishes=%d", tr.Vetoes(), tr.Publishes())
	}
	if local.Len() != 0 {
		t.Error("vetoed bootstrap was published anyway")
	}
}

func TestTrainerSkipsUnreachableIncumbent(t *testing.T) {
	dir := t.TempDir()
	local := registry.New()
	empty := registry.New() // a replica with no champion yet: no opinion
	appendObs(t, dir, crossover(32, 256, 2048, 16384, 131072))
	tr := newTrainer(t, dir, NewRegistryPublisher(local), Config{
		Incumbents: []Publisher{errPublisher{}, NewRegistryPublisher(empty)},
	})
	res, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published || res.Vetoed {
		t.Fatalf("dead/empty incumbents blocked the bootstrap: %+v", res)
	}
	if tr.Vetoes() != 0 {
		t.Errorf("vetoes = %d", tr.Vetoes())
	}
}

// recordingPublisher serves a fixed champion and keeps every model pushed
// at it, so each step duels the same stale model.
type recordingPublisher struct {
	champion  *core.Model
	published []*core.Model
}

func (p *recordingPublisher) Champion(string) (*core.Model, int, error) { return p.champion, 1, nil }
func (p *recordingPublisher) Publish(_ string, m *core.Model, _ *core.Lineage) (int, error) {
	p.published = append(p.published, m)
	return 1 + len(p.published), nil
}

// The trainer's window is a labeler fed step by step; the model it
// publishes from a window must be, byte for byte, the model batch
// labelling of that window's rows trains — over many steps, with the
// window sliding and the times noisy so that the order of summation shows.
func TestTrainerPublishesWhatBatchLabellingTrains(t *testing.T) {
	const maxRows, seed = 64, 3
	dir := t.TempDir()
	schema := features.TableI()
	var ompWins []obs
	for _, n := range []float64{32, 256, 2048, 16384, 131072} {
		ompWins = append(ompWins, obs{n: n, seqNS: n * 100, ompNS: n})
	}
	pub := &recordingPublisher{champion: trainModel(t, ompWins)}
	trace := looptrace.New("trainer-test", looptrace.Options{})
	tr := newTrainer(t, dir, pub, Config{
		Drift: drift.Config{MinRows: 4}, MaxWindowRows: maxRows, Seed: seed,
		MaxRegression: 1e9, // the duel's verdict is not under test: always publish
		Trace:         trace,
	})

	rng := dataset.NewRNG(11)
	sizes := []float64{16, 32, 64, 128, 256, 512, 4096, 16384, 65536, 131072, 262144}
	cols := core.RecordColumns(schema)
	var spooled [][]float64
	for step := 0; step < 12; step++ {
		var fresh []obs
		for i := 0; i < 20; i++ {
			o := crossover(sizes[rng.Intn(len(sizes))])[0]
			o.seqNS *= 1 + 0.3*rng.Float64()
			o.ompNS *= 1 + 0.3*rng.Float64()
			fresh = append(fresh, o)
		}
		appendObs(t, dir, fresh)
		_, rows := telemetryRows(schema, fresh)
		spooled = append(spooled, rows...)

		before := len(pub.published)
		res, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		window := spooled
		if over := len(window) - maxRows; over > 0 {
			window = window[over:]
		}
		if res.NewRows != len(rows) || res.WindowRows != len(window) {
			t.Fatalf("step %d: %d new rows, window %d; want %d, %d", step, res.NewRows, res.WindowRows, len(rows), len(window))
		}
		if !res.Published || len(pub.published) != before+1 {
			t.Fatalf("step %d did not publish: %+v", step, res)
		}
		if res.PollNS <= 0 || res.LabelNS <= 0 {
			t.Errorf("step %d: poll %.0fns, label %.0fns; both stages ran", step, res.PollNS, res.LabelNS)
		}

		frame := dataset.NewFrame(cols...)
		for _, row := range window {
			frame.AddRow(row)
		}
		set, err := core.Label(frame, schema, core.ExecutionPolicy)
		if err != nil {
			t.Fatal(err)
		}
		trainSet, _ := split(set, 0.25, seed)
		want, err := core.Train(trainSet, core.TrainConfig{})
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(pub.published[before])
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("step %d: published model differs from batch labelling of the same window:\n got %s\nwant %s", step, gotJSON, wantJSON)
		}
	}
	// Each cycle's retrain-start event carries the two stage times.
	starts := 0
	for _, ev := range trace.Snapshot() {
		if ev.Kind == looptrace.KindRetrainStart.String() {
			starts++
			if ev.A <= 0 || ev.B <= 0 {
				t.Errorf("retrain-start event %d carries poll %.0fns, label %.0fns", starts, ev.A, ev.B)
			}
		}
	}
	if starts != len(pub.published) {
		t.Errorf("%d retrain-start events for %d publishes", starts, len(pub.published))
	}
}

// A telemetry row with a policy outside the parameter's classes blocks
// labelling while it is in the window — the step says so and publishes
// nothing — and stops mattering once MaxWindowRows newer rows arrived.
func TestTrainerPoisonRowBlocksUntilItAgesOut(t *testing.T) {
	dir := t.TempDir()
	schema := features.TableI()
	var logged []string
	tr := newTrainer(t, dir, NewRegistryPublisher(registry.New()), Config{
		MaxWindowRows: 8,
		Logf:          func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})

	cols, rows := telemetryRows(schema, crossover(32, 131072))
	rows[1][len(cols)-3] = 9 // not a policy
	sp, err := telemetry.OpenSpool(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Append(cols, rows); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	for step, wantRow := range []int{1, -1} {
		if step > 0 {
			appendObs(t, dir, crossover(64, 256, 2048, 65536)) // 8 rows: the window turns over
		}
		logged = logged[:0]
		res, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if wantRow < 0 {
			if !res.Published || res.WindowRows != 8 {
				t.Fatalf("after the poison row aged out: %+v (log %q)", res, logged)
			}
			continue
		}
		want := fmt.Sprintf("row %d has out-of-range class 9", wantRow)
		if res.Published || len(logged) != 1 || !strings.Contains(logged[0], want) {
			t.Fatalf("step %d: published=%v, log %q; want one line with %q", step, res.Published, logged, want)
		}
	}
}

// chunkModel is a chunk_size model that always picks class 7 — past the
// two columns a policy window's MeanTimes rows have.
func chunkModel(t *testing.T) *core.Model {
	t.Helper()
	schema := features.TableI()
	m, err := core.NewModel(core.ChunkSize, schema, &dtree.Tree{
		Root: &dtree.Node{Feature: -1, Label: 7}, NumFeatures: schema.Len(), NumClasses: core.ChunkSize.NumClasses(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A model of another parameter published under the trainer's name is not
// something the gate can compare against: the step says so and does
// nothing (it indexed MeanTimes out of range and panicked before PR 19),
// and the loop resumes once a champion of its own parameter is there.
func TestStepRefusesForeignParamChampion(t *testing.T) {
	dir := t.TempDir()
	reg := registry.New()
	if _, err := reg.Publish("app/policy", chunkModel(t)); err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t, dir, NewRegistryPublisher(reg), Config{Drift: drift.Config{MinRows: 4}})
	appendObs(t, dir, crossover(32, 64, 128, 16384, 131072))
	res, err := tr.Step()
	if err == nil {
		t.Fatalf("step against a chunk_size champion = %+v, want an error", res)
	}
	for _, want := range []string{"chunk_size", "execution_policy", "app/policy v1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if e, _ := reg.Get("app/policy"); e.Version != 1 || tr.Retrains() != 0 || tr.Publishes() != 0 || tr.Triggers() != 0 {
		t.Errorf("refused step still acted: registry v%d, retrains=%d publishes=%d triggers=%d",
			e.Version, tr.Retrains(), tr.Publishes(), tr.Triggers())
	}

	// A stale policy champion replaces it: the next step duels as usual.
	var ompWins []obs
	for _, n := range []float64{32, 256, 2048, 16384, 131072} {
		ompWins = append(ompWins, obs{n: n, seqNS: n * 100, ompNS: n})
	}
	if _, err := reg.Publish("app/policy", trainModel(t, ompWins)); err != nil {
		t.Fatal(err)
	}
	appendObs(t, dir, crossover(32, 64, 128, 16384, 131072))
	res, err = tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trigger == nil || !res.Published || res.Version != 3 || res.ParentVersion != 2 {
		t.Fatalf("step after a policy champion arrived = %+v", res)
	}
}

// A fleet incumbent of another parameter has no say: it is skipped with a
// log line, like one that cannot be read, and the publish goes through.
func TestStepSkipsForeignParamIncumbent(t *testing.T) {
	dir := t.TempDir()
	local, incumbent := registry.New(), registry.New()
	if _, err := incumbent.Publish("app/policy", chunkModel(t)); err != nil {
		t.Fatal(err)
	}
	var logged []string
	tr := newTrainer(t, dir, NewRegistryPublisher(local), Config{
		Incumbents: []Publisher{NewRegistryPublisher(incumbent)},
		Logf:       func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	})
	appendObs(t, dir, crossover(32, 256, 2048, 16384, 131072))
	res, err := tr.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Published || res.Vetoed || tr.Vetoes() != 0 {
		t.Fatalf("a chunk_size incumbent blocked a policy bootstrap: %+v", res)
	}
	if want := "incumbent 0 predicts chunk_size, not execution_policy, skipping"; len(logged) != 2 || !strings.Contains(logged[0], want) {
		t.Errorf("log %q; want a first line with %q, then the publish", logged, want)
	}
}
