package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// hostileBodies reads testdata/hostile: model bodies that are
// well-formed JSON in the right formats but contradict their own
// header. Each is returned bare and wrapped in an envelope.
func hostileBodies(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "hostile", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no hostile bodies: %v", err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(p)
		out[name] = body
		out["envelope/"+name] = []byte(fmt.Sprintf(
			`{"format":%q,"name":"evil","version":2,"schema_hash":"","model":%s}`, envelopeFormatID, body))
	}
	return out
}

// The decoder door of the model boundary: every hostile body, bare or
// enveloped, is a decode error.
func TestParseRejectsHostileModels(t *testing.T) {
	for name, body := range hostileBodies(t) {
		if env, err := ParseModelOrEnvelope(body); err == nil {
			t.Errorf("%s: decoded as %+v", name, env.Model)
		}
	}
}

// FuzzParseModelOrEnvelope: whatever the decoder lets through must be
// safe to walk on any vector of the header's width — the compiled walk,
// its offset-recording twin, a projector and the interpreted reference
// agree, never panic, and answer a class the parameter has.
func FuzzParseModelOrEnvelope(f *testing.F) {
	for _, body := range hostileBodies(f) {
		f.Add(body)
	}
	schema := testSchema()
	set, err := Label(syntheticFrame(schema), schema, ExecutionPolicy)
	if err != nil {
		f.Fatal(err)
	}
	m, err := Train(set, TrainConfig{})
	if err != nil {
		f.Fatal(err)
	}
	bare, _ := m.MarshalJSON()
	wrapped, _ := WrapModel("trained", 3, m).MarshalJSON()
	f.Add(bare)
	f.Add(wrapped)

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ParseModelOrEnvelope(data)
		if err != nil {
			return
		}
		m := env.Model
		proj := m.NewProjector(m.Schema)
		var offs [8]int32
		for _, fill := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := make([]float64, m.Schema.Len())
			for i := range x {
				x[i] = fill
			}
			want := m.Predict(x)
			if want < 0 || want >= m.Param.NumClasses() {
				t.Fatalf("fill %g: class %d outside %v's %d classes", fill, want, m.Param, m.Param.NumClasses())
			}
			if got := m.Compiled().Predict(x); got != want {
				t.Fatalf("fill %g: compiled Predict = %d, reference = %d", fill, got, want)
			}
			if got, _ := m.Compiled().PredictOffsets(x, offs[:]); got != want {
				t.Fatalf("fill %g: PredictOffsets = %d, reference = %d", fill, got, want)
			}
			if got := proj.Predict(x); got != want {
				t.Fatalf("fill %g: projector Predict = %d, reference = %d", fill, got, want)
			}
		}
	})
}
