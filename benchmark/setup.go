package main

import (
	"fmt"

	"apollo/internal/app"
	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/harness"
	"apollo/internal/platform"
	"apollo/internal/raja"
)

// noiseAmp is the measurement-noise amplitude of every simulated clock
// and sweep in the benchmark; the seed argument drives it.
const noiseAmp = 0.05

func descriptor(name string) (app.Descriptor, error) {
	for _, d := range harness.Apps() {
		if d.Name == name {
			return d, nil
		}
	}
	return app.Descriptor{}, fmt.Errorf("unknown application %q", name)
}

// recordSweep runs one deck for steps timesteps under the harness's
// multi-variant recorder and returns one row per (launch, variant).
func recordSweep(desc app.Descriptor, problem string, size, steps int, seed uint64) (*dataset.Frame, error) {
	schema := features.TableI()
	machine := platform.SandyBridgeNode()
	ann := caliper.New()
	rec := harness.NewSweepRecorder(schema, ann, machine, noiseAmp, seed)
	ctx := raja.NewSimContext(platform.NewSimClock(machine, 0, 0), desc.DefaultParams)
	ctx.Hooks = rec
	sim, err := desc.New(app.Config{Ctx: ctx, Ann: ann, Problem: problem, Size: size})
	if err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		sim.Step()
	}
	return rec.Frame(), nil
}

// trainSteps bounds the timesteps a training sweep records of any deck.
const trainSteps = 3

// appSweep records the training data of one launch-phase deck: the deck
// itself plus the application's smallest training size, so the model has
// seen both ends of the launch-size range.
func appSweep(d deck, seed uint64) (*dataset.Frame, app.Descriptor, error) {
	desc, err := descriptor(d.App)
	if err != nil {
		return nil, desc, err
	}
	steps := d.Steps
	if steps > trainSteps {
		steps = trainSteps
	}
	frame, err := recordSweep(desc, d.Problem, d.Size, steps, seed)
	if err != nil {
		return nil, desc, fmt.Errorf("recording %s/%s/%d: %w", d.App, d.Problem, d.Size, err)
	}
	if small := desc.TrainSizes[0]; small != d.Size {
		extra, err := recordSweep(desc, d.Problem, small, trainSteps, seed)
		if err != nil {
			return nil, desc, fmt.Errorf("recording %s/%s/%d: %w", d.App, d.Problem, small, err)
		}
		frame.Append(extra)
	}
	return frame, desc, nil
}

// trainReduced is the paper's deployment configuration, as the harness
// trains it: full-feature fit, then top 5 features at depth 15.
func trainReduced(frame *dataset.Frame, param core.Parameter) (*core.Model, error) {
	set, err := core.Label(frame, features.TableI(), param)
	if err != nil {
		return nil, err
	}
	full, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		return nil, err
	}
	return full.Reduce(set, 5, 15, core.TrainConfig{})
}

// appModels is what set-up hands the launch phase for one deck.
type appModels struct {
	deck   deck
	desc   app.Descriptor
	policy *core.Model
	chunk  *core.Model // trained only for the traced pass (dual-model probes)
}

func setupLaunch(w workload, seed uint64, withChunk bool) ([]appModels, error) {
	out := make([]appModels, 0, len(w.Decks))
	for _, d := range w.Decks {
		frame, desc, err := appSweep(d, seed)
		if err != nil {
			return nil, err
		}
		am := appModels{deck: d, desc: desc}
		if am.policy, err = trainReduced(frame, core.ExecutionPolicy); err != nil {
			return nil, fmt.Errorf("training %s policy model: %w", d.App, err)
		}
		if withChunk {
			if am.chunk, err = trainReduced(frame, core.ChunkSize); err != nil {
				return nil, fmt.Errorf("training %s chunk model: %w", d.App, err)
			}
		}
		out = append(out, am)
	}
	return out, nil
}
