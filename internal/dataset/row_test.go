package dataset

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// rowSeeds returns the row texts the scanner must judge exactly as
// encoding/json judges them: testdata/rows.json (telemetry's cursor tests
// read it too, each seed as a spool line — "[\n1]" and "[1][2]" are then a
// row spanning lines and two rows on one line), then a 300-digit integer,
// which plainRow takes, and a 309-digit one past float64's range, which it
// hands back.
func rowSeeds(tb testing.TB) []string {
	tb.Helper()
	text, err := os.ReadFile("testdata/rows.json")
	if err != nil {
		tb.Fatal(err)
	}
	var seeds []string
	if err := json.Unmarshal(text, &seeds); err != nil {
		tb.Fatal(err)
	}
	return append(seeds, "[1,"+strings.Repeat("7", 300)+"]", "[2"+strings.Repeat("0", 308)+",1]")
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkRow holds the row scanner to encoding/json on one row text. ParseRow
// reads what json.Unmarshal reads into a []float64. As the second row of
// an array, after a plain one, ScanRows without values (the one-pass check
// for plain rows) and with them (the same pass converting) end at the same
// byte with the same shape, error and lines — after an error, the rows
// before the bad one — and they accept the array exactly when
// json.Unmarshal takes it into a [][]float64, the lines reading back to
// its values.
func checkRow(t *testing.T, line []byte) {
	t.Helper()
	var want []float64
	wantErr := json.Unmarshal(line, &want)
	got, gotErr := ParseRow(line, nil)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: ParseRow error %v, json.Unmarshal error %v", line, gotErr, wantErr)
	}
	if wantErr == nil && !sameBits(got, want) {
		t.Fatalf("%q: ParseRow read %v, json.Unmarshal %v", line, got, want)
	}

	text := append(append([]byte("[[7,-0.5],"), line...), ']')
	var checkLines, convLines []byte
	var vals []float64
	checkEnd, checkRows, checkErr := ScanRows(text, 0, nil, &checkLines)
	convEnd, convRows, convErr := ScanRows(text, 0, &vals, &convLines)
	if checkEnd != convEnd || checkRows != convRows || (checkErr == nil) != (convErr == nil) ||
		(checkErr != nil && checkErr.Error() != convErr.Error()) || !bytes.Equal(checkLines, convLines) {
		t.Fatalf("%q: ScanRows without values ended at %d, %+v, %v, lines %q; with them at %d, %+v, %v, lines %q",
			text, checkEnd, checkRows, checkErr, checkLines, convEnd, convRows, convErr, convLines)
	}
	if n := bytes.Count(checkLines, []byte("\n")); n != checkRows.N || (n > 0 && !bytes.HasPrefix(checkLines, []byte("[7,-0.5]\n"))) {
		t.Fatalf("%q: ScanRows counted %d rows, %v, and left the lines %q", text, checkRows.N, checkErr, checkLines)
	}
	var wantRows [][]float64
	wantErr = json.Unmarshal(text, &wantRows)
	if accept := checkErr == nil && skipSpace(text, checkEnd) == len(text); accept != (wantErr == nil) {
		t.Fatalf("%q: ScanRows ended at %d of %d, %v; json.Unmarshal error %v", text, checkEnd, len(text), checkErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	var flat []float64
	for i, line := range bytes.SplitAfter(checkLines, []byte("\n"))[:len(wantRows)] {
		if row, err := ParseRow(bytes.TrimSuffix(line, []byte("\n")), nil); err != nil || !sameBits(row, wantRows[i]) {
			t.Fatalf("%q: line %q reads back as %v, %v; json.Unmarshal read %v", text, line, row, err, wantRows[i])
		}
		flat = append(flat, wantRows[i]...)
	}
	if !sameBits(vals, flat) {
		t.Fatalf("%q: ScanRows read %v, json.Unmarshal %v", text, vals, flat)
	}
}

func TestParseRowMatchesJSON(t *testing.T) {
	for _, line := range rowSeeds(t) {
		checkRow(t, []byte(line))
	}
	// The scanner appends into the caller's row and returns it.
	row := make([]float64, 0, 4)
	got, err := ParseRow([]byte(`[7,8]`), row)
	if err != nil || len(got) != 2 || &got[0] != &row[:1][0] {
		t.Fatalf("parse into a caller's row = %v, %v", got, err)
	}
}

// FuzzParseRow is differential: the row scanner, on both of ScanRows'
// paths, accepts exactly the rows encoding/json accepts, reads the same
// values, and panics on nothing.
func FuzzParseRow(f *testing.F) {
	for _, line := range rowSeeds(f) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkRow(t, line)
	})
}

// After an error, on either path, the lines hold exactly the rows before
// the bad one, whether it is refused by the one-pass check or by scanRow
// and whether the good rows took the one or the other.
func TestScanRowsKeepsRowsBeforeAnError(t *testing.T) {
	for _, bad := range []string{`[1,-]`, `[1,01]`, `[1,x]`, `[1,2e999]`, `[1 ,]`, `[1,2`} {
		text := []byte(`[[1,2.5],[3, 4],[null,1e2],[5,6],` + bad + `,[7,8]]`)
		for _, vals := range []*[]float64{nil, new([]float64)} {
			var lines []byte
			if _, _, err := ScanRows(text, 0, vals, &lines); err == nil || !strings.HasPrefix(err.Error(), "row 4: ") {
				t.Errorf("%s: error %v, want one at row 4", text, err)
			}
			if want := "[1,2.5]\n[3,4]\n[0,1e2]\n[5,6]\n"; string(lines) != want {
				t.Errorf("%s (values: %v): lines %q, want %q", text, vals != nil, lines, want)
			}
			if vals != nil && !sameBits(*vals, []float64{1, 2.5, 3, 4, 0, 100, 5, 6}) {
				t.Errorf("%s: values %v", text, *vals)
			}
		}
	}
}

// A telemetry row as AppendRow writes it — 41 Table I features (counts,
// a ratio, a mean), the policy, the chunk and a measured time — takes the
// one-pass plain path whole and reads back bit for bit: a loop row never
// reaches scanRow.
func TestAppendRowTakesThePlainPath(t *testing.T) {
	row := make([]float64, 44)
	for i := range row {
		row[i] = float64(i * 7919 % 100003)
	}
	row[3], row[17], row[29] = 0.3333333333333333, 12.5, -0.000125
	row[41], row[42], row[43] = 1, 64, 1234.5678901234567
	line, err := AppendRow([]byte("  "), row)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{-1}
	if end, width := plainRow(line, 2, &vals); end != len(line) || width != len(row) || !sameBits(vals[1:], row) || vals[0] != -1 {
		t.Fatalf("plainRow(%s) = %d, %d, %v; want %d, %d, -1 then %v", line, end, width, vals, len(line), len(row), row)
	}
	// A row handed back mid-row leaves the values as they were.
	vals = vals[:1]
	if _, width := plainRow([]byte("[1,2.5,3e2]"), 0, &vals); width != 0 || len(vals) != 1 {
		t.Fatalf("plainRow took [1,2.5,3e2]: width %d, values %v", width, vals)
	}
}

// tableIRow is a spool line of a LULESH launch as the tuner records it:
// 44 values, the func and problem_name codes, num_indices, the chunk and
// the measured time among 37 one-digit counts.
const tableIRow = `[3660984585,5,0,3,1000,1,1,2,1,0,4,7,1,2,3,5,0,1,1,6,8,2,0,1,1,3,1,2,0,1,4,2,1,0,0,1,1,9,8,2895310415,0,1,64,4242.841692428767]`

func BenchmarkParseRow(b *testing.B) {
	line, row := []byte(tableIRow), make([]float64, 0, 44)
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		var err error
		if row, err = ParseRow(line, row[:0]); err != nil || len(row) != 44 {
			b.Fatalf("%d values, %v", len(row), err)
		}
	}
}
