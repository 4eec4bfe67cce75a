package apollo_test

// Same inputs, same bytes: everything the pipeline serializes — a model
// envelope, a compiled layout, generated source, a schema fingerprint, a
// metrics page, a stitched lineage report — must come out byte for byte
// the same however often it is produced. Go re-randomises every range
// over a map, so one process running the pipeline eight times is eight
// iteration orders: a map range that reaches an encoder unsorted shows
// up as a difference between passes (DESIGN §8). What it does not see is
// an encoder no pass runs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"testing"
	"time"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/codegen"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/looptrace"
	"apollo/internal/metrics"
	"apollo/internal/platform"
	"apollo/internal/raja"
	"apollo/internal/registry"
	"apollo/internal/tuner"
)

// artifact is one named serialization of a pass.
type artifact struct {
	name  string
	bytes []byte
}

// differingArtifacts runs pass eight times and names every artifact
// whose bytes differ, in any pass, from the first pass's.
func differingArtifacts(t *testing.T, pass func() []artifact) []string {
	t.Helper()
	first := pass()
	var differ []string
	for n := 1; n < 8; n++ {
		for i, a := range pass() {
			if a.name != first[i].name {
				t.Fatalf("pass %d produced %s where pass 0 produced %s", n, a.name, first[i].name)
			}
			if !bytes.Equal(a.bytes, first[i].bytes) {
				differ = append(differ, fmt.Sprintf("%s (pass %d)", a.name, n))
			}
		}
	}
	return differ
}

// recordSamples is the pipeline's input: one LULESH run per execution
// policy on the simulated clock, as CSV. It runs once a test, not once a
// pass: kernel IDs come from a process-wide counter and key both the
// loop_id feature and the clock's noise, so a second recording in the
// same process is a different input, not a repeat of this one.
func recordSamples(t *testing.T, schema *features.Schema) []byte {
	t.Helper()
	desc := descFor(t, "LULESH")
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
		ann := caliper.New()
		rec := tuner.NewRecorder(schema, ann)
		ctx := raja.NewSimContext(platform.NewSimClock(platform.SandyBridgeNode(), 0.05, 2), raja.Params{Policy: pol})
		ctx.Observe = rec.Observe
		sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: "sedov", Size: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			sim.Step()
		}
		frame.Append(rec.Frame())
	}
	var csv bytes.Buffer
	if err := frame.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return csv.Bytes()
}

// pipelinePass is samples → train → every encoder.
func pipelinePass(t *testing.T, samples []byte) []artifact {
	t.Helper()
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	schema := features.TableI()
	frame, err := dataset.ReadCSV(bytes.NewReader(samples))
	if err != nil {
		t.Fatal(err)
	}
	var recorded bytes.Buffer
	if err := frame.WriteCSV(&recorded); err != nil {
		t.Fatal(err)
	}

	// Train, and publish with a lineage block as apollo-traind would.
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lin := &core.Lineage{LoopID: "L1", ParentVersion: 1, Trainer: "traind", TrainedAtNS: 1e18, WindowRows: frame.Len(),
		SampleCounts: map[string]int{}, DriftReason: "mispredict", DuelChampionNS: 900, DuelChallengerNS: 400}
	for r := 0; r < 12; r++ {
		lin.SampleCounts["replica-"+strconv.Itoa(r)] = frame.Len() / 12
	}
	entry, err := registry.New().PublishLineage("lulesh/execution_policy", model, lin)
	if err != nil {
		t.Fatal(err)
	}

	// A metrics page with a dozen label values a family, from the frame.
	m := metrics.New()
	loopID := frame.Column(features.LoopID)
	for i, ns := range frame.Column(core.ColTimeNS) {
		site := strconv.Itoa(int(loopID[i]) % 12)
		m.CounterAdd("apollo_launches_total", "site", site, "launches recorded", 1)
		m.GaugeSet("apollo_last_policy", "site", site, "policy of the last launch", int64(i%2))
		m.ObserveLabeled("apollo_kernel_seconds", "site", site, "kernel time", ns/1e9)
	}
	var page bytes.Buffer
	if err := m.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}

	// The retrain cycle's journals, four actors' worth, stitched.
	var events []looptrace.EventJSON
	for c, loop := range []string{"L1", "L2", "L3"} {
		at := func(ms int64) int64 { return 1e18 + (int64(c)*100+ms)*int64(time.Millisecond) }
		v := int32(entry.Version + c)
		events = append(events,
			looptrace.EventJSON{Kind: "client-swap", Actor: "tune", Model: entry.Name, Loop: loop, Version: v, WallNS: at(50)},
			looptrace.EventJSON{Kind: "drift-fired", Actor: "traind", Model: entry.Name, Loop: loop, A: 0.6, Rows: int64(frame.Len()), WallNS: at(0)},
			looptrace.EventJSON{Kind: "retrain-start", Actor: "traind", Model: entry.Name, Loop: loop, Parent: v - 1, Rows: 36, WallNS: at(1)},
			looptrace.EventJSON{Kind: "retrain-end", Actor: "traind", Model: entry.Name, Loop: loop, DurNS: 9e6, WallNS: at(10)},
			looptrace.EventJSON{Kind: "duel", Actor: "traind", Model: entry.Name, Loop: loop, A: 900, B: 400, Rows: 4, Peer: "publish", WallNS: at(11)},
			looptrace.EventJSON{Kind: "publish", Actor: "serve:r1", Model: entry.Name, Loop: loop, Version: v, Parent: v - 1, WallNS: at(15)},
			looptrace.EventJSON{Kind: "sync-pull", Actor: "serve:r2", Model: entry.Name, Loop: loop, Version: v, Peer: "r1", WallNS: at(30)},
			looptrace.EventJSON{Kind: "ring-evict", Actor: "serve:r1", Peer: "r9", WallNS: at(5)})
	}
	report := looptrace.Stitch(events)
	var timeline bytes.Buffer
	if err := report.WriteTimeline(&timeline); err != nil {
		t.Fatal(err)
	}

	return []artifact{
		{"recorded frame", recorded.Bytes()},
		{"model envelope", entry.Raw},
		{"envelope ETag", []byte(entry.ETag)},
		{"ctree layout", mustJSON(model.Compiled().Layout())},
		{"codegen source", []byte(codegen.Generate(model, "tuned", "ApolloBeginForall"))},
		{"schema fingerprint", []byte(model.SchemaHash() + " " + strconv.FormatUint(features.Fingerprint(schema.Names()), 16))},
		{"metrics page", page.Bytes()},
		{"lineage report", append(mustJSON(report), timeline.Bytes()...)},
	}
}

func TestSameInputsSameBytes(t *testing.T) {
	samples := recordSamples(t, features.TableI())
	if differ := differingArtifacts(t, func() []artifact { return pipelinePass(t, samples) }); len(differ) > 0 {
		t.Errorf("same inputs, different bytes: %v", differ)
	}

	// The comparison proves itself: an encoder fed straight from a range
	// over a sixteen-key map must be caught.
	t.Run("CatchesAnUnsortedRange", func(t *testing.T) {
		counts := map[string]int{}
		for r := 0; r < 16; r++ {
			counts["replica-"+strconv.Itoa(r)] = r
		}
		differ := differingArtifacts(t, func() []artifact {
			var b bytes.Buffer
			for name, n := range counts {
				fmt.Fprintf(&b, "%s=%d\n", name, n)
			}
			return []artifact{{"unsorted range", b.Bytes()}}
		})
		if len(differ) == 0 {
			t.Error("eight passes over an unsorted sixteen-key range wrote the same bytes every time")
		}
	})
}
