package trainer

import (
	"fmt"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/drift"
	"apollo/internal/dtree"
	"apollo/internal/features"
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
