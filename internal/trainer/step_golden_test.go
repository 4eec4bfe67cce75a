package trainer

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/drift"
	"apollo/internal/dtree"
	"apollo/internal/looptrace"
	"apollo/internal/registry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/step_outcomes.golden.json from this build")

// stepGolden is everything one Step lets an observer see, with the
// wall-clock readings (stage durations, the loop ID minted from the
// time, the lineage's trained-at stamp) folded to "did it run".
type stepGolden struct {
	Events   []string        `json:"events"`
	Result   json.RawMessage `json:"result"`
	Counters string          `json:"counters"`
	Lineage  json.RawMessage `json:"lineage"`
	Model    json.RawMessage `json:"model"`
	Logs     []string        `json:"logs"`
}

// ran folds a wall duration to whether its stage ran.
func ran(ns float64) float64 {
	if ns > 0 {
		return 1
	}
	return 0
}

func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// interleaved is a window no depth-1 tree separates: seq wins on six
// sizes, omp — by a lot — on the four between them.
func interleaved(seqNS, ompNS float64) []obs {
	var w []obs
	for _, n := range []float64{10, 30, 50, 70, 90, 110} {
		w = append(w, obs{n: n, seqNS: seqNS, ompNS: ompNS})
	}
	for _, n := range []float64{20, 40, 60, 80} {
		w = append(w, obs{n: n, seqNS: 10000, ompNS: 100})
	}
	return w
}

// noisy draws count crossover observations over repeating sizes with up
// to 30% noise on each time, so vectors carry means and launch weights
// above one and the order of every float summation shows in the goldens.
func noisy(seed uint64, count int) []obs {
	rng := dataset.NewRNG(seed)
	sizes := []float64{16, 32, 64, 128, 256, 512, 4096, 16384, 65536, 131072, 262144}
	var w []obs
	for i := 0; i < count; i++ {
		o := crossover(sizes[rng.Intn(len(sizes))])[0]
		o.seqNS *= 1 + 0.3*rng.Float64()
		o.ompNS *= 1 + 0.3*rng.Float64()
		w = append(w, o)
	}
	return w
}

// TestStepOutcomesGolden pins the five things a step that trains can end
// in — bootstrap-publish, bootstrap-veto, reject, veto, publish — each by
// its loop events with fields, its Result, the five counters, the
// published lineage block and model bytes, and its log lines. The goldens
// were captured at the commit before Step became one pipeline (PR 19's
// parent, d730798), so passing here means the rewrite changed nothing an
// observer can see, duel numbers and model bytes bit for bit.
func TestStepOutcomesGolden(t *testing.T) {
	var ompWins, seqWins []obs
	for _, n := range []float64{10, 30, 50, 70, 90, 110} {
		ompWins = append(ompWins, obs{n: n, seqNS: n * 100, ompNS: n})
		seqWins = append(seqWins, obs{n: n, seqNS: n, ompNS: n * 100})
	}
	depth1 := core.TrainConfig{Tree: dtree.Config{MaxDepth: 1}}
	holding := func(t *testing.T, window []obs) Publisher {
		reg := registry.New()
		if window != nil {
			if _, err := reg.Publish("app/policy", trainModel(t, window)); err != nil {
				t.Fatal(err)
			}
		}
		return NewRegistryPublisher(reg)
	}

	cases := []struct {
		name       string
		champion   []obs // what the local champion was trained on; nil: none
		window     []obs
		cfg        Config
		incumbents func(t *testing.T) []Publisher
	}{
		{
			name:   "bootstrap-publish",
			window: noisy(7, 40),
			incumbents: func(t *testing.T) []Publisher {
				return []Publisher{errPublisher{}, holding(t, nil), holding(t, ompWins)}
			},
		},
		{
			name:   "bootstrap-veto",
			window: interleaved(1, 50),
			cfg:    Config{Train: depth1},
			incumbents: func(t *testing.T) []Publisher {
				return []Publisher{holding(t, nil), holding(t, interleaved(1, 50))}
			},
		},
		{
			name:     "reject",
			champion: ompWins,
			window:   interleaved(1, 2),
			cfg:      Config{Drift: drift.Config{MinRows: 4}, Train: depth1},
			incumbents: func(t *testing.T) []Publisher {
				return []Publisher{errPublisher{}} // never asked: the champion already won
			},
		},
		{
			name:     "veto",
			champion: seqWins,
			window:   interleaved(1, 50),
			cfg:      Config{Drift: drift.Config{MinRows: 4}, Train: depth1, Seed: 2},
			incumbents: func(t *testing.T) []Publisher {
				return []Publisher{errPublisher{}, holding(t, seqWins), holding(t, interleaved(1, 50))}
			},
		},
		{
			name:     "publish",
			champion: ompWins,
			window:   noisy(11, 60),
			cfg:      Config{Drift: drift.Config{MinRows: 4}},
			incumbents: func(t *testing.T) []Publisher {
				return []Publisher{errPublisher{}, holding(t, nil), holding(t, ompWins)}
			},
		},
	}

	got := map[string]stepGolden{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := registry.New()
			if tc.champion != nil {
				if _, err := reg.Publish("app/policy", trainModel(t, tc.champion)); err != nil {
					t.Fatal(err)
				}
			}
			trace := looptrace.New("golden", looptrace.Options{})
			var g stepGolden
			cfg := tc.cfg
			cfg.Incumbents = tc.incumbents(t)
			cfg.Trace = trace
			cfg.Logf = func(format string, args ...any) { g.Logs = append(g.Logs, fmt.Sprintf(format, args...)) }
			tr := newTrainer(t, dir, NewRegistryPublisher(reg), cfg)
			appendObs(t, dir, tc.window)
			res, err := tr.Step()
			if err != nil {
				t.Fatal(err)
			}

			for _, ev := range trace.Snapshot() {
				loop, a, b := ev.Loop, exact(ev.A), exact(ev.B)
				if loop != "" && loop == res.LoopID {
					loop = "LOOP"
				}
				if ev.Kind == looptrace.KindRetrainStart.String() { // poll and label wall times
					a, b = exact(ran(ev.A)), exact(ran(ev.B))
				}
				g.Events = append(g.Events, fmt.Sprintf("%s model=%s loop=%s version=%d parent=%d rows=%d ran=%v a=%s b=%s peer=%q",
					ev.Kind, ev.Model, loop, ev.Version, ev.Parent, ev.Rows, ran(ev.DurNS), a, b, ev.Peer))
			}
			norm := *res
			if norm.LoopID != "" {
				norm.LoopID = "LOOP"
			}
			norm.PollNS, norm.LabelNS, norm.RetrainNS = ran(res.PollNS), ran(res.LabelNS), ran(res.RetrainNS)
			norm.DuelNS, norm.PublishNS = ran(res.DuelNS), ran(res.PublishNS)
			if g.Result, err = json.Marshal(norm); err != nil {
				t.Fatal(err)
			}
			g.Counters = fmt.Sprintf("triggers=%d retrains=%d publishes=%d rejects=%d vetoes=%d",
				tr.Triggers(), tr.Retrains(), tr.Publishes(), tr.Rejects(), tr.Vetoes())
			g.Lineage, g.Model = json.RawMessage("null"), json.RawMessage("null")
			if res.Published {
				e, _ := reg.Get("app/policy")
				lin := *e.Lineage
				if lin.LoopID == res.LoopID {
					lin.LoopID = "LOOP"
				}
				lin.TrainedAtNS = int64(ran(float64(lin.TrainedAtNS)))
				if g.Lineage, err = json.Marshal(lin); err != nil {
					t.Fatal(err)
				}
				if g.Model, err = json.Marshal(e.Model); err != nil {
					t.Fatal(err)
				}
			}
			got[tc.name] = g
		})
	}

	path := filepath.Join("testdata", "step_outcomes.golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]stepGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		g, w := got[tc.name], want[tc.name]
		gj, _ := json.MarshalIndent(g, "", "  ")
		wj, _ := json.MarshalIndent(w, "", "  ")
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s: step differs from the golden captured at the parent commit:\n got %s\nwant %s", tc.name, gj, wj)
		}
	}
}
