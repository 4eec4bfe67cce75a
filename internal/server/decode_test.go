package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// predictRequest is the POST /predict body as encoding/json decodes it:
// the reference decodePredict is held to.
type predictRequest struct {
	Model    string             `json:"model"`
	X        []float64          `json:"x,omitempty"`
	Batch    [][]float64        `json:"batch,omitempty"`
	Features map[string]float64 `json:"features,omitempty"`
}

var predictSeeds = []string{
	`{"model":"policy","x":[1,2.5,-3e2]}`, `{"model":"policy","batch":[[1,2],[3,4]]}`, `{"model":"policy","features":{"num_indices":64}}`,
	`{"x":[1],"model":"m"}`, `{"model":"m","x":[]}`, `{"model":"m","x":null}`, `{"model":"m","batch":[]}`, `{"model":"m","batch":null}`,
	`{"model":"m","batch":[[]]}`, `{"model":"m","batch":[null,[1]]}`, `{"model":"m","batch":[[1],[2,3],[4]]}`, `{"model":"m","features":{}}`,
	`{"model":"m","features":null}`, `{"model":"m","x":[1],"batch":[[2]]}`, `{"model":"m","batch":[[2]],"x":[1]}`, `{"model":"m","batch":[[2,3]],"x":null}`, `{"x":[1,2],"batch":null}`, `{"model":"m","x":[1],"features":{"a":1}}`,
	` { "model" : "m" , "x" : [ 1 , null , 1e+06 ] } `, `{"model":"m","x":[1e309]}`, `{"model":"m","x":[1,]}`, `{"model":"m","x":[1}`, `{"model":"m","x":1}`,
	`{"model":"m","x":["1"]}`, `{"model":"m","batch":[1]}`, `{"model":"m","batch":[[1],]}`, `{"model":"m","batch":[[1]`, `{"model":"m","batch":{}}`,
	`{"model":"m","features":{"a":"1"}}`, `{"model":"m","features":{"a":1,"a":2}}`, `{"model":"m","features":[1]}`, `{"model":"m","features":{"a":1e999}}`,
	`{"model":5,"x":[1]}`, `{"model":null,"x":[1]}`, `{"model":"ab<&>","x":[1]}`, `{"model":"m","x":[1]}`, `{"Model":"m","x":[1]}`, `{"model":"m","X":[1]}`,
	`{"model":"m","BATCH":[[1]]}`, `{"model":"m","x":[1],"x":[2]}`, `{"model":"m","model":"n","x":[1]}`, `{"model":"m","x":[1],"other":{"x":[2]},"other":3}`,
	`{"model":"m","x":[1],"other":tru}`, `{"model":"m","x":[1]}x`, `{"model":"m","x":[1]} {}`, `{"model":"m","x":[1]}` + "\n", `{}`, `null`, `[]`, ``, `{"model":"m"`,
	`{"model":"m","x":[-0,0.1,4.9e-324,123456789012345678901234567890]}`,
}

// checkDecodePredict holds decodePredict to its contract on one body.
func checkDecodePredict(t *testing.T, body []byte, p *predictBody) {
	t.Helper()
	var want predictRequest
	wantErr := json.Unmarshal(body, &want)
	if gotErr := decodePredict(body, p); gotErr != nil {
		if wantErr == nil && !narrowedPredictKeys(body) {
			t.Fatalf("%q: decodePredict error %v, json.Unmarshal accepts", body, gotErr)
		}
		return
	} else if wantErr != nil {
		t.Fatalf("%q: decodePredict accepts, json.Unmarshal error %v", body, wantErr)
	}
	if p.model != want.Model || p.x != (want.X != nil) || p.batch != (want.Batch != nil) ||
		(p.features == nil) != (want.Features == nil) || len(p.features) != len(want.Features) {
		t.Fatalf("%q: decodePredict read %+v, json.Unmarshal %+v", body, p, want)
	}
	for name, v := range want.Features {
		if got, ok := p.features[name]; !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%q: feature %q is %v, json.Unmarshal read %v", body, name, got, v)
		}
	}
	if want.X != nil && want.Batch != nil {
		return // the handler refuses the request whatever the vectors are
	}
	rows := want.Batch
	if want.X != nil {
		rows = [][]float64{want.X}
	}
	var flat []float64
	for _, row := range rows {
		flat = append(flat, row...)
	}
	if len(p.flat) != len(flat) {
		t.Fatalf("%q: decodePredict read the values %v, json.Unmarshal %v", body, p.flat, flat)
	}
	for i := range flat {
		if math.Float64bits(p.flat[i]) != math.Float64bits(flat[i]) {
			t.Fatalf("%q: value %d is %v, json.Unmarshal read %v", body, i, p.flat[i], flat[i])
		}
	}
	if p.rows.N != len(rows) {
		t.Fatalf("%q: shape %+v for the vectors %v", body, p.rows, rows)
	}
	for width := 0; width < 4; width++ {
		wantRow := -1
		for i, row := range rows {
			if len(row) != width {
				wantRow = i
				break
			}
		}
		row, got, found := p.rows.Mismatch(width)
		if found != (wantRow >= 0) || found && (row != wantRow || got != len(rows[wantRow])) {
			t.Fatalf("%q: first vector not %d wide is %d (%d wide, found %v), want %d", body, width, row, got, found, wantRow)
		}
	}
}

// narrowedPredictKeys reports a body decodePredict refuses although
// json.Unmarshal takes it: null, or a case-variant or repeated known key.
func narrowedPredictKeys(body []byte) bool {
	if strings.TrimSpace(string(body)) == "null" {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	met := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key := tok.(string)
		for _, name := range []string{"model", "features", "x", "batch"} {
			if strings.EqualFold(key, name) && (key != name || met[key]) {
				return true
			}
		}
		met[key] = true
		var value json.RawMessage
		if dec.Decode(&value) != nil {
			return false
		}
	}
	return false
}

func TestDecodePredictMatchesJSON(t *testing.T) {
	var p predictBody
	for _, seed := range predictSeeds {
		checkDecodePredict(t, []byte(seed), &p)
	}
}

// FuzzDecodePredict is differential: what decodePredict accepts
// json.Unmarshal accepts with the same model, features and vector values;
// what json.Unmarshal accepts and decodePredict refuses is null or has a
// case-variant or repeated known key; nothing panics.
func FuzzDecodePredict(f *testing.F) {
	for _, seed := range predictSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodePredict(t, body, new(predictBody))
	})
}
