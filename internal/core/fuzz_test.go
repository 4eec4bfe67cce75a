package core

import (
	"bytes"
	"encoding/json"
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

// FuzzParseModelOrEnvelope is differential: the decoder accepts what
// oracleParse (a probe, then encoding/json into the format's wire
// structs) accepts, and an accepted body decodes to the same bytes,
// schema hash and compiled predictions on both sides.
// Whatever it lets through must be safe to walk on any vector of the
// header's width — the compiled walk, its offset-recording twin, a
// projector and the interpreted reference agree, never panic, and answer
// a class the parameter has.
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
	published := publishedEnvelope(f)
	for _, seed := range [][]byte{bare, wrapped, published, deepModel(10001)} {
		f.Add(seed)
	}
	for _, edit := range [][2]string{
		// case variants of a body's, a tree's and a node's member
		{`"tree"`, `"Tree"`}, {`"num_classes"`, `"NUM_CLASSES"`}, {`"left"`, `"lefT"`}, {`"schema_hash"`, `"ſchema_hash"`},
		// members named twice, at each level
		{`"version":7`, `"version":7,"version":8`}, {`"num_features":41`, `"num_features":41,"num_features":41`},
		{`"samples"`, `"label":0,"samples"`}, {`"model":{`, `"model":null,"model":{`},
		// members of the other format of the wrong type, one of its own
		{`"lineage":{`, `"tree":5,"parameter":[1],"lineage":{`}, {`"version":7`, `"version":7.5`},
		{`"model":{`, `"model":{"name":5,"model":1,"Lineage":[],`}, {`"model":{`, `"Tree":{},"PARAMETER":"x","model":{`},
		// and a format of the wrong type after them
		{`"lineage":{`, `"tree":5,"format":5,"lineage":{`},
	} {
		f.Add(bytes.Replace(published, []byte(edit[0]), []byte(edit[1]), 1))
	}
	f.Add(bytes.Replace(bare, []byte(`"tree"`), []byte(`"version":"x","model":1,"tree"`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ParseModelOrEnvelope(data)
		want, wantErr := oracleParse(data)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("decoded a body encoding/json refuses (%v)", wantErr)
		case err != nil && wantErr == nil:
			t.Fatalf("refused a body encoding/json takes: %v", err)
		case err != nil:
			return
		}
		for _, pair := range [][2]json.Marshaler{{env, want}, {env.Model, want.Model}} {
			got, err := pair[0].MarshalJSON()
			exp, wantErr := pair[1].MarshalJSON()
			if err != nil || wantErr != nil || !bytes.Equal(got, exp) {
				t.Fatalf("decoded to %s (%v), encoding/json to %s (%v)", got, err, exp, wantErr)
			}
		}
		if env.SchemaHash != want.SchemaHash || env.Model.SchemaHash() != want.Model.SchemaHash() {
			t.Fatalf("schema hash %s, encoding/json's %s", env.SchemaHash, want.SchemaHash)
		}
		m, oracle := env.Model, want.Model
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
			if got := oracle.Compiled().Predict(x); got != want {
				t.Fatalf("fill %g: encoding/json's model predicts %d, the decoder's %d", fill, got, want)
			}
		}
	})
}
