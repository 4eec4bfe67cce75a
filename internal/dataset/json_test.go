package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// appendRowEdges are values on every boundary of AppendRow's cases: the
// integer short cut and its limits, -0, the 'f'/'e' cutoffs, exponents
// of one, two and three digits, a 17-digit mantissa, the subnormals.
var appendRowEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.5, 42, 100000, 3660984585,
	1e15 - 1, 1e15, 1e15 + 2, -1e15, -(1e15 - 1), 1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, -(1 << 63), 1 << 64,
	1e-6, 1e-7, 9.999999e-7, 1.5e-9, 1e-10, 1e20, 1e21, 9.99999999999999e20, 1e22, 1e100, 1e-100,
	0.1, 0.30000000000000004, 4242.841692428767, 1.7976931348623157e308, 2.2250738585072014e-308, 5e-324,
	123456789012345680, 1234567890123456.7, 0.000001234,
}

func checkAppendRow(t *testing.T, row []float64) {
	t.Helper()
	want, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendRow([]byte("x"), row)
	if err != nil || string(got) != "x"+string(want) {
		t.Fatalf("AppendRow(%v) = %q, %v; json.Marshal writes %q", row, got, err, want)
	}
}

// AppendRow writes what encoding/json writes, byte for byte.
func TestAppendRowMatchesJSON(t *testing.T) {
	checkAppendRow(t, nil)
	checkAppendRow(t, []float64{})
	checkAppendRow(t, appendRowEdges)
	for _, v := range appendRowEdges {
		checkAppendRow(t, []float64{v, -v, math.Nextafter(v, 0), -math.Nextafter(v, 0)})
		if up := math.Nextafter(v, math.Inf(1)); !math.IsInf(up, 0) {
			checkAppendRow(t, []float64{up, -up})
		}
	}
	sweep := func(bits [4]uint64) bool {
		row := make([]float64, 0, 2*len(bits))
		for _, b := range bits {
			if v := math.Float64frombits(b); !math.IsNaN(v) && !math.IsInf(v, 0) {
				// The bit pattern, and the integer of its low bits: random
				// bits are almost never an integer below 2^53.
				row = append(row, v, float64(int64(b>>(b%64)))-float64(b%3))
			}
		}
		checkAppendRow(t, row)
		return true
	}
	if err := quick.Check(sweep, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := AppendRow([]byte("x"), []float64{1, v}); err == nil || string(got) != "x" {
			t.Errorf("AppendRow of %v = %q, %v; want an error and nothing appended", v, got, err)
		}
	}
}

// WriteJSONL writes the lines json.Encoder wrote before AppendRow replaced
// it.
func TestWriteJSONLMatchesEncoder(t *testing.T) {
	f := NewFrame("a", "b<&>", "c")
	f.AddRow([]float64{1, math.Copysign(0, -1), 1e-7})
	f.AddRow([]float64{1e21, 0.30000000000000004, -2.5})
	var want, got bytes.Buffer
	enc := json.NewEncoder(&want)
	if err := enc.Encode(Header{Format: FrameFormat, Columns: f.Cols()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Len(); i++ {
		if err := enc.Encode(f.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WriteJSONL(&got); err != nil || got.String() != want.String() {
		t.Fatalf("WriteJSONL wrote\n%s, %v; json.Encoder writes\n%s", got.String(), err, want.String())
	}
	f.AddRow([]float64{1, math.NaN(), 3})
	if err := f.WriteJSONL(&got); err == nil {
		t.Error("a NaN was written")
	}
}

// member is what the walked object's known members decode into, and the
// struct json.Unmarshal fills from the same body.
type walked struct {
	A int       `json:"alpha"`
	B []float64 `json:"beta"`
}

func walk(body []byte) (walked, error) {
	var w walked
	err := WalkObject(body, []Field{{Name: "alpha", Into: &w.A}, {Name: "beta"}}, func(_, i int) (int, error) {
		end, err := Value(body, i)
		if err == nil {
			w.B, err = ParseRow(body[i:end], nil)
		}
		return end, err
	})
	return w, err
}

// WalkObject against json.Unmarshal: the same bodies accepted, but for
// the narrowings its comment names.
func TestWalkObjectMatchesJSON(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, tc := range []struct {
		body     string
		narrowed bool // json.Unmarshal accepts, WalkObject must not
	}{
		{body: `{}`}, {body: ` { } `}, {body: `{"alpha":1,"beta":[1,2]}`}, {body: "\t{ \"beta\" : [ 1 ] ,\r\n\"alpha\" : 2 } \n"},
		{body: `{"alpha":null,"beta":null}`}, {body: `{"alpha":1.5}`}, {body: `{"alpha":"1"}`}, {body: `{"beta":[1e999]}`},
		{body: `{"other":{"alpha":[1,{"x":"}"}],"y":"\"]"},"alpha":3}`}, {body: `{"other":1e999,"o2":-0.0e-0,"o3":tru}`},
		{body: `{"other":[1,}`}, {body: `{"other":"a\qb"}`}, {body: "{\"other\":\"a\x01b\"}"}, {body: "{\"oth\x01er\":1}"},
		{body: `{"alpha":4}`}, {body: `{"al\pha":4}`}, {body: "{\"alph\xff\":4}"}, {body: `{"alpha":4,"other":5,"other":6}`},
		{body: `{"ALPHA":1}`, narrowed: true}, {body: `{"Beta":[1]}`, narrowed: true}, {body: `{"Alpha":1}`, narrowed: true},
		{body: `{"alpha":1,"alpha":2}`, narrowed: true}, {body: `{"beta":[1],"alpha":1,"beta":[2]}`, narrowed: true},
		{body: "{\"Klpha\":1}"}, {body: "{\"alpſa\":1}"}, // Kelvin, long s: fold to no name here
		{body: "{\"K\":1}"},
		{body: `{"alpha":1}x`}, {body: `{"alpha":1}{}`}, {body: `{"alpha":1,}`}, {body: `{,"alpha":1}`}, {body: `{"alpha" 1}`},
		{body: `{"alpha":}`}, {body: `{"alpha":1`}, {body: `{"alpha"`}, {body: `{"alpha`}, {body: `{`}, {body: ``}, {body: `null`, narrowed: true},
		{body: `[]`}, {body: `{alpha:1}`}, {body: `{"alpha":1 "beta":[1]}`}, {body: `{"alpha":1]`}, {body: `{"beta":[1]]}`},
		{body: `{"other":` + deep(9999) + `}`}, {body: `{"other":` + deep(10000) + `}`},
		{body: `{"beta":` + deep(10000) + `}`},
	} {
		body := []byte(tc.body)
		var want walked
		wantErr := json.Unmarshal(body, &want)
		got, gotErr := walk(body)
		if accept := wantErr == nil && !tc.narrowed; accept != (gotErr == nil) {
			t.Errorf("%.80q: WalkObject error %v, json.Unmarshal error %v (narrowed: %v)", tc.body, gotErr, wantErr, tc.narrowed)
		} else if accept && (got.A != want.A || len(got.B) != len(want.B)) {
			t.Errorf("%.80q: WalkObject read %+v, json.Unmarshal %+v", tc.body, got, want)
		}
	}
}

// ScanRows copies what it checked: the lines read back hold the values
// json.Unmarshal reads from the rows, and the shape names the first row
// of another width.
func TestScanRowsLinesReadBack(t *testing.T) {
	text := []byte(" [[1,2.50,-0],[ 3 ,\tnull,1e2 ] ,[],null,[4,5,6],[null],\r\n[7,8,9,10]] tail")
	var lines []byte
	var vals []float64
	end, rows, err := ScanRows(text, 1, &vals, &lines)
	if err != nil || string(text[end:]) != " tail" {
		t.Fatalf("ScanRows ended at %d, %v", end, err)
	}
	if want := "[1,2.50,-0]\n[3,0,1e2]\n[]\n[]\n[4,5,6]\n[0]\n[7,8,9,10]\n"; string(lines) != want {
		t.Errorf("lines %q, want %q", lines, want)
	}
	if want := (Rows{N: 7, Width: 3, Odd: 2, OddWidth: 0}); rows != want {
		t.Errorf("shape %+v, want %+v", rows, want)
	}
	if row, width, found := rows.Mismatch(3); !found || row != 2 || width != 0 {
		t.Errorf("Mismatch(3) = %d, %d, %v", row, width, found)
	}
	if row, width, found := rows.Mismatch(4); !found || row != 0 || width != 3 {
		t.Errorf("Mismatch(4) = %d, %d, %v", row, width, found)
	}
	var want [][]float64
	if err := json.Unmarshal(text[1:end], &want); err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for i, line := range bytes.Split(bytes.TrimSuffix(lines, []byte("\n")), []byte("\n")) {
		row, err := ParseRow(line, nil)
		if err != nil || len(row) != len(want[i]) {
			t.Fatalf("line %q reads back as %v, %v; json.Unmarshal read %v", line, row, err, want[i])
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want[i][j]) {
				t.Errorf("line %q value %d is %v, json.Unmarshal read %v", line, j, v, want[i][j])
			}
		}
		flat = append(flat, row...)
	}
	if len(flat) != len(vals) {
		t.Fatalf("ScanRows values %v, lines hold %v", vals, flat)
	}
	for i := range flat {
		if math.Float64bits(flat[i]) != math.Float64bits(vals[i]) {
			t.Errorf("value %d is %v in vals, %v in the lines", i, vals[i], flat[i])
		}
	}
	if _, rows, _ := ScanRows([]byte(`[[1],[2]]`), 0, nil, nil); rows != (Rows{N: 2, Width: 1}) {
		t.Errorf("even rows have shape %+v", rows)
	} else if _, _, found := rows.Mismatch(1); found {
		t.Error("Mismatch found a row among even rows of the wanted width")
	}
}
