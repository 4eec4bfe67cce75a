package tuner

import (
	"testing"

	"apollo/internal/caliper"
	"apollo/internal/features"
	"apollo/internal/instmix"
	"apollo/internal/raja"
	"apollo/internal/telemetry"
)

// The launch hot path carries //apollo:hotpath annotations checked
// statically by apollo-vet; these guards pin the same invariant at
// runtime with the allocator's own accounting.

func TestBeginAllocationFree(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	ann.Set(features.Timestep, 1)
	ann.SetString(features.ProblemName, "allocguard")
	tn := NewTuner(schema, ann, raja.Params{Policy: raja.SeqExec})
	tn.UsePolicyModel(trainPolicyModel(t, schema))
	k := raja.NewKernel("allocguard", instmix.NewMix().With(instmix.Add, 4))
	iset := raja.NewRange(0, 4096)

	allocs := testing.AllocsPerRun(200, func() {
		tn.Begin(k, iset)
	})
	if allocs != 0 {
		t.Errorf("Tuner.Begin allocates %.1f objects per launch, want 0", allocs)
	}
}

func TestEndUnsampledAllocationFree(t *testing.T) {
	schema := features.TableI()
	ann := caliper.New()
	tn := NewTuner(schema, ann, raja.Params{Policy: raja.SeqExec})
	// The guard measures End past the site's first 16 launches (every one
	// kept): launches 17 on keep one row per stride of 2, 4, …, 64, and
	// the launches inside a stride cost the cadence arithmetic alone.
	rec := telemetry.NewRecorder(schema, ann, telemetry.Options{})
	tn.UseTelemetry(rec)
	k := raja.NewKernel("allocguard", instmix.NewMix().With(instmix.Add, 4))
	iset := raja.NewRange(0, 4096)
	p := raja.Params{Policy: raja.SeqExec}
	for range 16 {
		tn.End(k, iset, p, 1234)
	}

	allocs := testing.AllocsPerRun(200, func() {
		tn.End(k, iset, p, 1234)
	})
	if allocs != 0 {
		t.Errorf("Tuner.End (unsampled) allocates %.1f objects per launch, want 0", allocs)
	}
}
