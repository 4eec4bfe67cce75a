// Package trainer closes Apollo's training loop. It tails a telemetry
// spool, aggregates sampled launch measurements into a sliding window,
// asks the drift detector whether the deployed champion still matches
// the machine, and — when it does not — retrains a challenger on the
// window and publishes it only if it would not regress the fleet:
// champion and challenger are both scored on a held-out slice of the
// telemetry by the measured runtime of the variants they pick, and the
// challenger ships only when its predicted time is within MaxRegression
// of the champion's. A model service with no champion yet is
// bootstrapped from the first labelable window.
package trainer

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"apollo/internal/client"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/drift"
	"apollo/internal/features"
	"apollo/internal/looptrace"
	"apollo/internal/registry"
	"apollo/internal/telemetry"
)

// Publisher is where champions live: the trainer reads the current one
// and pushes challengers. Implementations wrap the HTTP client (a
// trainer daemon beside the service) or a registry directly (in-process
// tests, single-binary deployments).
type Publisher interface {
	// Champion returns the current model and version for name, or
	// (nil, 0, nil) when none has ever been published.
	Champion(name string) (*core.Model, int, error)
	// Publish installs m as the new current version of name. lin, when
	// non-nil, is the provenance block stamped into the published
	// envelope (how the model was produced); nil publishes without.
	Publish(name string, m *core.Model, lin *core.Lineage) (int, error)
}

// NewClientPublisher publishes through a model-service client.
func NewClientPublisher(c *client.Client) Publisher { return clientPublisher{c} }

type clientPublisher struct{ c *client.Client }

func (p clientPublisher) Champion(name string) (*core.Model, int, error) {
	got, err := p.c.Fetch(name)
	if errors.Is(err, client.ErrNotFound) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	return got.Model, got.Version, nil
}

func (p clientPublisher) Publish(name string, m *core.Model, lin *core.Lineage) (int, error) {
	return p.c.PushLineage(name, m, lin)
}

// NewRegistryPublisher publishes straight into an in-process registry.
func NewRegistryPublisher(reg *registry.Registry) Publisher { return registryPublisher{reg} }

type registryPublisher struct{ reg *registry.Registry }

func (p registryPublisher) Champion(name string) (*core.Model, int, error) {
	e, ok := p.reg.Get(name)
	if !ok {
		return nil, 0, nil
	}
	return e.Model, e.Version, nil
}

func (p registryPublisher) Publish(name string, m *core.Model, lin *core.Lineage) (int, error) {
	e, err := p.reg.PublishLineage(name, m, lin)
	if err != nil {
		return 0, err
	}
	return e.Version, nil
}

// Config tunes a Trainer; zero values pick defaults.
type Config struct {
	// Name is the model's registry name (required).
	Name string
	// Param is the tuning parameter to train (default ExecutionPolicy).
	Param core.Parameter
	// Schema is the telemetry feature schema (required).
	Schema *features.Schema
	// Drift configures the staleness tripwire.
	Drift drift.Config
	// MaxWindowRows bounds the telemetry window; the oldest rows fall
	// off (default 100000).
	MaxWindowRows int
	// Holdout is the fraction of labeled vectors held out to score
	// champion vs challenger (default 0.25, at least 1 vector).
	Holdout float64
	// MaxRegression is the tolerated predicted-time regression: the
	// challenger publishes when challengerNS <= championNS *
	// (1+MaxRegression) (default 0.02).
	MaxRegression float64
	// Seed fixes the holdout split (default 1).
	Seed uint64
	// Incumbents are additional champions the challenger must not
	// regress: in a fleet, one Publisher per replica, so a collectively
	// trained model publishes only when it beats (within MaxRegression)
	// every replica-local incumbent on the holdout — not just the
	// champion of the replica it happens to publish through. An
	// incumbent that cannot be read (replica down) is skipped with a log
	// line rather than blocking training; the health checker owns dead
	// replicas.
	Incumbents []Publisher
	// Train is passed through to core.Train.
	Train core.TrainConfig
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
	// ID names this trainer in lineage blocks (default "trainer"); a
	// daemon sets it to something host-unique so a published model says
	// which process produced it.
	ID string
	// Trace (optional) receives loop events — drift-fired,
	// retrain-start/end, duel, publish — correlated by the loop ID the
	// step mints when drift fires. A nil tracer disables emission.
	Trace *looptrace.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxWindowRows <= 0 {
		c.MaxWindowRows = 100000
	}
	if c.Holdout <= 0 || c.Holdout >= 1 {
		c.Holdout = 0.25
	}
	if c.MaxRegression <= 0 {
		c.MaxRegression = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.ID == "" {
		c.ID = "trainer"
	}
	return c
}

// Result reports what one Step did.
type Result struct {
	// NewRows is how many spool rows the step ingested.
	NewRows int
	// WindowRows is the telemetry window size after ingestion.
	WindowRows int
	// Trigger is the drift decision that caused a retrain (nil when the
	// champion still matches the telemetry).
	Trigger *drift.Trigger
	// Retrained reports that a challenger was trained this step.
	Retrained bool
	// Published reports that the challenger (or bootstrap model) was
	// installed; Version is its registry version.
	Published bool
	Version   int
	// ChampionNS and ChallengerNS are the holdout predicted times that
	// decided a champion/challenger duel (0 when no duel ran).
	ChampionNS   float64
	ChallengerNS float64
	// Vetoed reports that a fleet incumbent (Config.Incumbents) beat the
	// challenger on the holdout, blocking the publish.
	Vetoed bool
	// LoopID identifies the retrain cycle this step started ("" when no
	// retrain ran); ParentVersion is the champion version the cycle
	// replaces (0 on bootstrap). Both are stamped into the published
	// model's lineage block.
	LoopID        string
	ParentVersion int
	// PollNS, LabelNS, RetrainNS, DuelNS, and PublishNS are wall durations
	// of the step's stages (0 when the stage did not run), for the
	// daemon's apollo_loop_stage_seconds histograms. LabelNS covers
	// taking the fresh rows into the window and labelling it.
	PollNS    float64
	LabelNS   float64
	RetrainNS float64
	DuelNS    float64
	PublishNS float64
}

// Trainer drives the retrain loop for one model.
type Trainer struct {
	cfg    Config
	cursor *telemetry.Cursor
	pub    Publisher
	det    *drift.Detector
	window *core.Labeler // the newest MaxWindowRows telemetry rows

	triggers  atomic.Uint64
	retrains  atomic.Uint64
	publishes atomic.Uint64
	rejects   atomic.Uint64
	vetoes    atomic.Uint64
}

// New returns a trainer tailing cursor — one spool, or a fleet's — and
// publishing through pub.
func New(cursor *telemetry.Cursor, pub Publisher, cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		return nil, fmt.Errorf("trainer: Config.Name is required")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("trainer: Config.Schema is required")
	}
	return &Trainer{
		cfg:    cfg,
		cursor: cursor,
		pub:    pub,
		det:    drift.NewDetector(cfg.Drift),
		window: core.NewLabeler(cfg.Schema, cfg.Param),
	}, nil
}

// Triggers, Retrains, Publishes, Rejects expose loop counters for the
// daemon's metrics endpoint.
func (t *Trainer) Triggers() uint64  { return t.triggers.Load() }
func (t *Trainer) Retrains() uint64  { return t.retrains.Load() }
func (t *Trainer) Publishes() uint64 { return t.publishes.Load() }
func (t *Trainer) Rejects() uint64   { return t.rejects.Load() }

// Vetoes counts publishes blocked by a fleet incumbent.
func (t *Trainer) Vetoes() uint64 { return t.vetoes.Load() }

// Step runs one poll-check-retrain cycle. It never blocks on the spool:
// no new rows (or a window too thin to label) is a clean no-op result.
func (t *Trainer) Step() (*Result, error) {
	pollStart := time.Now()
	fresh, err := t.cursor.Poll()
	if err != nil {
		return nil, err
	}
	res := &Result{PollNS: float64(time.Since(pollStart))}
	if fresh == nil || fresh.Len() == 0 {
		res.WindowRows = t.window.Len()
		return res, nil
	}
	res.NewRows = fresh.Len()
	labelStart := time.Now()
	set, err := t.label(fresh)
	res.LabelNS = float64(time.Since(labelStart))
	res.WindowRows = t.window.Len()
	if err != nil {
		// Telemetry without counterfactuals (no vector observed under
		// two variants yet) cannot be labeled; keep accumulating.
		t.cfg.Logf("trainer: window not labelable yet: %v", err)
		return res, nil
	}

	champion, champVer, err := t.pub.Champion(t.cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("trainer: reading champion %s: %w", t.cfg.Name, err)
	}
	// Bootstrap — no local champion to defend — trains on the whole window
	// and is scored in-sample; a retrain waits for the drift detector and
	// holds a slice of the window out for the gate.
	bootstrap, boot := champion == nil, "bootstrap "
	trainSet, eval := set, set
	if !bootstrap {
		if champion.Param != t.cfg.Param {
			return nil, fmt.Errorf("trainer: champion %s v%d predicts %v, this trainer trains %v: nothing to compare",
				t.cfg.Name, champVer, champion.Param, t.cfg.Param)
		}
		if res.Trigger = t.det.Check(champion, set); res.Trigger == nil {
			return res, nil
		}
		t.triggers.Add(1)
		res.ParentVersion, boot = champVer, ""
		trainSet, eval = split(set, t.cfg.Holdout, t.cfg.Seed)
	}
	res.LoopID = looptrace.NewLoopID(t.cfg.Name, champVer, time.Now().UnixNano())
	if trig := res.Trigger; trig != nil {
		t.emit(looptrace.KindDriftFired, res.LoopID, looptrace.Fields{
			Parent: int32(champVer), Rows: int64(trig.Rows),
			A: trig.MispredictRate, B: trig.Shift,
		})
		t.cfg.Logf("trainer: %s: %s", t.cfg.Name, trig)
	}

	t.emit(looptrace.KindRetrainStart, res.LoopID,
		looptrace.Fields{Parent: int32(champVer), Rows: int64(trainSet.Len()), A: res.PollNS, B: res.LabelNS})
	trainStart := time.Now()
	challenger, err := core.Train(trainSet, t.cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("trainer: %strain: %w", boot, err)
	}
	res.RetrainNS = float64(time.Since(trainStart))
	t.retrains.Add(1)
	res.Retrained = true
	t.emit(looptrace.KindRetrainEnd, res.LoopID,
		looptrace.Fields{Parent: int32(champVer), Rows: int64(trainSet.Len()), DurNS: res.RetrainNS})

	verdict, by, byNS := t.gate(res, champion, challenger, eval)
	duel := looptrace.Fields{
		Parent: int32(champVer), Rows: int64(eval.Len()), DurNS: res.DuelNS,
		A: res.ChampionNS, B: res.ChallengerNS, Peer: verdict,
	}
	if bootstrap {
		duel.A = byNS // no champion's time to report: the vetoing incumbent's
	}
	if !bootstrap || verdict == "veto" {
		t.emit(looptrace.KindDuel, res.LoopID, duel)
	}
	switch verdict {
	case "reject":
		t.rejects.Add(1)
		t.cfg.Logf("trainer: %s: challenger rejected (%.0fns vs champion %.0fns on %d holdout vectors)",
			t.cfg.Name, res.ChallengerNS, res.ChampionNS, eval.Len())
		return res, nil
	case "veto":
		t.vetoes.Add(1)
		res.Vetoed = true
		if bootstrap {
			t.cfg.Logf("trainer: %s: bootstrap vetoed by fleet incumbent #%d (%.0fns)", t.cfg.Name, by, byNS)
		} else {
			t.cfg.Logf("trainer: %s: challenger vetoed by fleet incumbent #%d (%.0fns vs challenger %.0fns)",
				t.cfg.Name, by, byNS, res.ChallengerNS)
		}
		return res, nil
	}

	pubStart := time.Now()
	v, err := t.pub.Publish(t.cfg.Name, challenger, t.lineage(res, trainSet.Len(), eval.Len()))
	if err != nil {
		return nil, fmt.Errorf("trainer: %spublish: %w", boot, err)
	}
	res.PublishNS = float64(time.Since(pubStart))
	t.publishes.Add(1)
	t.det.SetBaseline(drift.SnapshotSet(set))
	res.Published, res.Version = true, v
	t.emit(looptrace.KindPublish, res.LoopID,
		looptrace.Fields{Version: int32(v), Parent: int32(champVer), DurNS: res.PublishNS})
	if bootstrap {
		t.cfg.Logf("trainer: bootstrapped %s v%d from %d vectors", t.cfg.Name, v, set.Len())
	} else {
		t.cfg.Logf("trainer: published %s v%d (%.0fns vs champion %.0fns on %d holdout vectors)",
			t.cfg.Name, v, res.ChallengerNS, res.ChampionNS, eval.Len())
	}
	return res, nil
}

// gate decides whether the challenger may publish: one loop over
// opponents, each scored on eval by core's one scorer under one rule —
// the challenger loses when its predicted time exceeds the opponent's by
// more than MaxRegression. The local champion comes first (none on
// bootstrap) and its win is a "reject"; then every Config.Incumbents
// entry, whose win is a "veto". An incumbent that cannot be read (its
// replica is down: the health checker's job) or that predicts another
// parameter is skipped with a log line. gate returns the verdict
// ("publish" when no opponent won), the winning incumbent's index and the
// winner's predicted time, and records the champion's duel in res.
func (t *Trainer) gate(res *Result, champion, challenger *core.Model, eval *core.LabeledSet) (verdict string, by int, byNS float64) {
	duelStart := time.Now()
	challengerNS := drift.PredictedTimeNS(challenger, eval)
	for i := -1; i < len(t.cfg.Incumbents); i++ {
		opponent, win := champion, "reject"
		if i >= 0 {
			var err error
			opponent, _, err = t.cfg.Incumbents[i].Champion(t.cfg.Name)
			switch {
			case err != nil:
				t.cfg.Logf("trainer: %s: incumbent %d unreadable, skipping: %v", t.cfg.Name, i, err)
				continue
			case opponent != nil && opponent.Param != t.cfg.Param:
				t.cfg.Logf("trainer: %s: incumbent %d predicts %v, not %v, skipping", t.cfg.Name, i, opponent.Param, t.cfg.Param)
				continue
			}
			win = "veto"
		}
		if opponent == nil {
			continue
		}
		ns := drift.PredictedTimeNS(opponent, eval)
		if i < 0 {
			res.ChampionNS, res.ChallengerNS, res.DuelNS = ns, challengerNS, float64(time.Since(duelStart))
		}
		if challengerNS > ns*(1+t.cfg.MaxRegression) {
			return win, i, ns
		}
	}
	return "publish", 0, 0
}

// label takes the fresh rows into the window, ages the oldest rows out
// of it, and labels what remains.
func (t *Trainer) label(fresh *dataset.Frame) (*core.LabeledSet, error) {
	if err := t.window.Add(fresh); err != nil {
		return nil, err
	}
	t.window.Trim(t.cfg.MaxWindowRows)
	return t.window.Set()
}

// emit routes one loop event for this trainer's model through the
// configured tracer (a no-op without one).
func (t *Trainer) emit(kind looptrace.Kind, loop string, f looptrace.Fields) {
	t.cfg.Trace.Emit(kind, t.cfg.Name, loop, f)
}

// lineage assembles the provenance block for a model about to publish
// (a bootstrap, scored in-sample, records no holdout). Its sample counts
// are the training vectors under "local" for a cursor of one source, and
// each source's spool rows read for a cursor of several (see
// core.Lineage).
func (t *Trainer) lineage(res *Result, windowRows, holdoutRows int) *core.Lineage {
	lin := &core.Lineage{
		LoopID:        res.LoopID,
		ParentVersion: res.ParentVersion,
		Trainer:       t.cfg.ID,
		TrainedAtNS:   time.Now().UnixNano(),
		WindowRows:    windowRows,
	}
	if sources, _ := t.cursor.Stats(); len(sources) == 1 {
		lin.SampleCounts = map[string]int{"local": windowRows}
	} else {
		lin.SampleCounts = make(map[string]int, len(sources))
		for _, src := range sources {
			lin.SampleCounts[src.Name] = int(src.Rows)
		}
	}
	if trig := res.Trigger; trig != nil {
		lin.HoldoutRows = holdoutRows
		lin.DriftReason = trig.Reason
		lin.DriftMispredict = trig.MispredictRate
		lin.DriftShift = trig.Shift
		lin.DriftShiftFeature = trig.ShiftFeature
		lin.DuelChampionNS = res.ChampionNS
		lin.DuelChallengerNS = res.ChallengerNS
	} else {
		lin.DriftReason = "bootstrap"
	}
	return lin
}

// split partitions a labeled set into train and holdout slices by a
// seeded shuffle. Both sides keep at least one vector; a set too small
// to split is used whole on both sides (in-sample scoring beats a
// single-vector holdout).
func split(set *core.LabeledSet, holdout float64, seed uint64) (train, eval *core.LabeledSet) {
	n := set.Len()
	if n < 4 {
		return set, set
	}
	h := int(float64(n) * holdout)
	if h < 1 {
		h = 1
	}
	if h >= n {
		h = n - 1
	}
	perm := dataset.NewRNG(seed).Perm(n)
	return set.Subset(perm[h:]), set.Subset(perm[:h])
}
