package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"apollo/internal/dataset"
	"apollo/internal/journal"
)

// wireBody builds a batch body around a rows member given as text, with
// a header that is valid for cols.
func wireBody(cols []string, rows string) string {
	quoted, _ := json.Marshal(cols)
	return fmt.Sprintf(`{"format":%q,"model":"app/policy","schema_hash":%q,"columns":%s,"rows":%s}`,
		BatchFormatID, ColumnsHash(cols), quoted, rows)
}

// batchSeeds are bodies DecodeBatch must judge as json.Unmarshal into a
// Batch + Validate do, but for its documented narrowings.
func batchSeeds() []string {
	one, two := []string{"a"}, []string{"a", "b"}
	hash := ColumnsHash(two)
	valid := wireBody(two, `[[1,2],[3,4]]`)
	seeds := []string{
		valid, wireBody(two, `null`), wireBody(two, `[]`), wireBody(two, ` [ [ 1 , 2 ] , [ -0 , 1e-7 ] ] `),
		wireBody(two, `[[1,2],null]`), wireBody(two, `[null]`), wireBody(two, `[[1,null],[null,null]]`),
		wireBody(two, `[[1,2],[3]]`), wireBody(two, `[[1],[3,4]]`), wireBody(two, `[[1,2,3],[4,5,6]]`), wireBody(two, `[[]]`),
		wireBody(two, `[[1e21,12345678901234567],[0.30000000000000004,1e-400]]`), wireBody(two, `[[1,2],[3,1e309]]`),
		// plain rows between rows of the general path, and a bad row after good ones
		wireBody(two, `[[1,2],[3, 4],[5,6],[null,7],[8,9],[1e3,2],[0.5,-0],[4242.841692428767,12345678901234567],[6,7]]`),
		wireBody(two, `[[1,2],[3,4],[5, 6],[7,-]]`), wireBody(two, `[[1,2],[3,4],[5,06]]`), wireBody(two, `[[1,2],[3,4],[5,6e999]]`),
		wireBody(two, `[[1,2]`), wireBody(two, `[[1,2],]`), wireBody(two, `[[1,2] [3,4]]`), wireBody(two, `[1,2]`),
		wireBody(two, `{}`), wireBody(two, `"x"`), wireBody(two, `[[1,"2"]]`), wireBody(two, `[[1,[2]]]`), wireBody(two, `[[1,true]]`),
		wireBody(nil, `[]`), wireBody(nil, `[[]]`), wireBody([]string{}, `null`),
		// rows before columns, attribution, unknown and nested members
		fmt.Sprintf(`{"rows":[[1,2]],"loop_id":"L<1>","source_version":7,"columns":["a","b"],"schema_hash":%q,"model":"m","format":%q}`, hash, BatchFormatID),
		fmt.Sprintf(`{"extra":{"rows":[[9]],"deep":[1,{"x":"]}"}]},"format":%q,"model":"m","schema_hash":%q,"columns":["a","b"],"rows":[[1,2]],"more":null}`, BatchFormatID, hash),
		fmt.Sprintf(`{"extra":tru,"format":%q,"model":"m","schema_hash":%q,"columns":["a","b"],"rows":[[1,2]]}`, BatchFormatID, hash),
		fmt.Sprintf(`{"extra":1e999,"format":%q,"model":"m","schema_hash":%q,"columns":["a","b"],"rows":[[1,2]]}`, BatchFormatID, hash),
		// escaped, case-variant and duplicated keys
		strings.Replace(valid, `"rows"`, `"ro\u0077s"`, 1), strings.Replace(valid, `"rows"`, `"ROWS"`, 1),
		strings.Replace(valid, `"rows"`, `"rowſ"`, 1), strings.Replace(valid, `"model"`, `"Model"`, 1),
		strings.Replace(valid, `"rows"`, `"ro\ws"`, 1), strings.Replace(valid, `"rows"`, "\"ro\x01ws\"", 1),
		strings.Replace(valid, `}`, `,"rows":[[5,6]]}`, 1), strings.Replace(valid, `}`, `,"model":"m2"}`, 1),
		strings.Replace(valid, `}`, `,"x":1,"x":2}`, 1),
		// header members of the wrong type or content
		strings.Replace(valid, `"app/policy"`, `5`, 1), strings.Replace(valid, `"app/policy"`, `""`, 1),
		strings.Replace(valid, `"app/policy"`, `null`, 1), strings.Replace(valid, `["a","b"]`, `["a","c"]`, 1),
		strings.Replace(valid, `["a","b"]`, `"a"`, 1), strings.Replace(valid, BatchFormatID, "v0", 1),
		strings.Replace(valid, `}`, `,"source_version":1.5}`, 1), strings.Replace(valid, `}`, `,"source_version":"1"}`, 1),
		strings.Replace(valid, `}`, `,"loop_id":7}`, 1),
		// trailing bytes, other top-level values
		valid + "x", valid + " \n", valid + "{}", valid + "]", " \t" + valid, `null`, `[]`, `{}`, ``, `{"rows":[[1]]}`,
	}
	for _, line := range spoolRowSeeds {
		seeds = append(seeds, wireBody(one, "["+line+"]"), wireBody(two, "[[1,2],"+line+"]"), wireBody(one, line))
	}
	// Truncation at every structural byte of a valid body.
	for i, c := range []byte(valid) {
		if strings.IndexByte(`{}[]",:`, c) >= 0 {
			seeds = append(seeds, valid[:i], valid[:i+1])
		}
	}
	return seeds
}

// narrowedKeys reports whether a top-level key of the object body is a
// case variant of one of names or one of them met twice: the bodies
// dataset.WalkObject refuses although json.Unmarshal takes them.
func narrowedKeys(body []byte, names []string) bool {
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
		for _, name := range names {
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

// checkDecodeBatch holds DecodeBatch to its contract on one body and
// returns the decoded batch when both sides accept.
func checkDecodeBatch(t *testing.T, body []byte, d *Decoded) *Batch {
	t.Helper()
	var want Batch
	wantErr := json.Unmarshal(body, &want)
	if wantErr == nil {
		wantErr = want.Validate()
	}
	gotErr := DecodeBatch(body, d)
	if gotErr != nil {
		if len(d.lines) != 0 || d.NumRows != 0 {
			t.Fatalf("%q: refused, but left %d rows and lines %q to append", body, d.NumRows, d.lines)
		}
		if wantErr == nil && !narrowedKeys(body, []string{"format", "model", "schema_hash", "columns", "source_version", "loop_id", "rows"}) {
			t.Fatalf("%q: DecodeBatch error %v, json.Unmarshal + Validate accept", body, gotErr)
		}
		return nil
	}
	if wantErr != nil {
		t.Fatalf("%q: DecodeBatch accepts, json.Unmarshal + Validate error %v", body, wantErr)
	}
	if d.Model != want.Model || d.SourceVersion != want.SourceVersion || d.LoopID != want.LoopID ||
		!slices.Equal(d.Columns, want.Columns) || d.NumRows != len(want.Rows) {
		t.Fatalf("%q: DecodeBatch read %+v, json.Unmarshal %+v", body, d, want)
	}
	lines := bytes.SplitAfter(d.lines, []byte("\n"))
	if len(lines) != len(want.Rows)+1 || len(lines[len(want.Rows)]) != 0 {
		t.Fatalf("%q: %d rows became the lines %q", body, len(want.Rows), d.lines)
	}
	for i, wantRow := range want.Rows {
		if bytes.ContainsAny(lines[i], " \t\r") || bytes.IndexByte(lines[i], '\n') != len(lines[i])-1 {
			t.Fatalf("%q: row %d became the line %q", body, i, lines[i])
		}
		row, err := dataset.ParseRow(lines[i], nil)
		if err != nil || len(row) != len(wantRow) {
			t.Fatalf("%q: line %q reads back as %v, %v; json.Unmarshal read %v", body, lines[i], row, err, wantRow)
		}
		for j := range row {
			if math.Float64bits(row[j]) != math.Float64bits(wantRow[j]) {
				t.Fatalf("%q: row %d value %d reads back as %v, json.Unmarshal read %v", body, i, j, row[j], wantRow[j])
			}
		}
	}
	return &want
}

// Every seed judged as the reference judges it; every accepted one, read
// back from a spool by a fresh cursor, holds the rows json.Unmarshal read,
// bit for bit.
func TestDecodeBatchMatchesJSONAndSpoolsWhatItRead(t *testing.T) {
	var d Decoded
	accepted := 0
	for _, seed := range batchSeeds() {
		want := checkDecodeBatch(t, []byte(seed), &d)
		if want == nil {
			continue
		}
		accepted++
		dir := t.TempDir()
		s, err := OpenSpool(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendDecoded(&d); err != nil {
			t.Fatalf("%q: %v", seed, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := int(s.Appended()); got != len(want.Rows) || !slices.Equal(s.Columns(), want.Columns) {
			t.Fatalf("%q: spool counts %d rows laid out by %v", seed, got, s.Columns())
		}
		frame, err := NewCursor(dir).Poll()
		if err != nil {
			t.Fatalf("%q: %v", seed, err)
		}
		if frame == nil {
			frame = dataset.NewFrame(want.Columns...) // a poll that found no rows
		}
		if frame.Len() != len(want.Rows) {
			t.Fatalf("%q: cursor read %d rows, json.Unmarshal %d", seed, frame.Len(), len(want.Rows))
		}
		for i, row := range want.Rows {
			for j, v := range row {
				if math.Float64bits(frame.Row(i)[j]) != math.Float64bits(v) {
					t.Fatalf("%q: row %d value %d is %v from the cursor, %v from json.Unmarshal", seed, i, j, frame.Row(i)[j], v)
				}
			}
		}
	}
	if accepted < 10 {
		t.Errorf("only %d seeds were accepted", accepted)
	}
	// A Validate failure is told apart from a body that does not decode.
	var invalid *InvalidError
	if err := DecodeBatch([]byte(wireBody([]string{"a", "b"}, `[[1,2],[3]]`)), &d); !errors.As(err, &invalid) ||
		!strings.Contains(err.Error(), "row 1 has 1 values, want 2") {
		t.Errorf("a short row: %v", err)
	}
	if err := DecodeBatch([]byte(wireBody([]string{"a"}, `[[1],[x]]`)), &d); err == nil || errors.As(err, &invalid) {
		t.Errorf("a malformed row: %v", err)
	}
}

// FuzzDecodeBatch is differential: what DecodeBatch accepts,
// json.Unmarshal + Validate accept with the same header and — read back
// from the lines — the same row values; what they accept and DecodeBatch
// refuses has a case-variant or repeated batch key; nothing panics.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeBatch(t, body, new(Decoded))
	})
}

// goldenRows are values whose text form is easy to get wrong.
var goldenRows = [][]float64{
	{1, math.Copysign(0, -1), 1e-7, 1e21},
	{12345678901234567, 0.30000000000000004, -2.5, 4242.841692428767},
	{3660984585, 1e-6, 1e20, 5e-324},
}

const goldenSegment = `{"format":"apollo-frame-v1","columns":["a","b\u003c\u0026\u003e","c","d"]}
[1,-0,1e-7,1e+21]
[12345678901234568,0.30000000000000004,-2.5,4242.841692428767]
[3660984585,0.000001,100000000000000000000,5e-324]
`

// A Go-encoded body through DecodeBatch + AppendDecoded and the same rows
// through Append leave the segment the json.Encoder-based writer left.
func TestSpoolSegmentBytesAreGolden(t *testing.T) {
	cols := []string{"a", "b<&>", "c", "d"}
	frame := dataset.NewFrame(cols...)
	for _, row := range goldenRows {
		frame.AddRow(row)
	}
	body, err := json.Marshal(NewBatch("m", frame))
	if err != nil {
		t.Fatal(err)
	}
	var d Decoded
	if err := DecodeBatch(body, &d); err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(*Spool) error{
		"Append":        func(s *Spool) error { return s.Append(cols, goldenRows) },
		"AppendDecoded": func(s *Spool) error { return s.AppendDecoded(&d) },
	} {
		dir := t.TempDir()
		s, err := OpenSpool(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(s); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "seg-00000001.jsonl"))
		if err != nil || string(got) != goldenSegment {
			t.Errorf("%s wrote, %v:\n%s\nwant:\n%s", name, err, got, goldenSegment)
		}
	}
	// A row JSON cannot carry fails the append before anything is written.
	dir := t.TempDir()
	s, err := OpenSpool(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]string{"a"}, [][]float64{{1}, {math.Inf(1)}}); err == nil {
		t.Error("an infinity was spooled")
	}
	if segs, _ := journal.Segments(dir); len(segs) != 0 || s.Appended() != 0 {
		t.Errorf("a refused append left segments %v, %d rows", segs, s.Appended())
	}
}

// tableIFrame is rows × width values shaped like a Table I telemetry row,
// as the repository benchmark and real recorders send it: one-digit
// counts, 10-digit FNV codes for func (first) and problem_name (fifth from
// last), a measured time of 15–17 significant digits last.
func tableIFrame(rng *dataset.RNG, rows, width int) *dataset.Frame {
	cols := make([]string, width)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	frame := dataset.NewFrame(cols...)
	row := make([]float64, width)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = float64(rng.Intn(10))
		}
		row[0], row[width-5] = 1e9+3*float64(rng.Intn(1e9)), 1e9+3*float64(rng.Intn(1e9))
		row[width-1] = 4000 * (1 + rng.Float64())
		frame.AddRow(row)
	}
	return frame
}

// benchBody is a Go-encoded batch of tableIFrame rows.
func benchBody(tb testing.TB, rows, width int) []byte {
	tb.Helper()
	body, err := json.Marshal(NewBatch("bench/model", tableIFrame(dataset.NewRNG(1), rows, width)))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// A warm decode costs its header members: nothing per row or per number.
func TestDecodeBatchAllocatesNothingPerRow(t *testing.T) {
	allocs := func(rows int) float64 {
		body := benchBody(t, rows, 44)
		var d Decoded
		if err := DecodeBatch(body, &d); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := DecodeBatch(body, &d); err != nil || d.NumRows != rows {
				t.Fatalf("decoded %d rows, %v", d.NumRows, err)
			}
		})
	}
	small, large := allocs(16), allocs(256)
	if (small != large && !raceEnabled) || large > 64 {
		t.Errorf("a warm DecodeBatch allocates %.0f objects for 16 rows and %.0f for 256; want one small constant", small, large)
	}
}

var benchDecoded Decoded

// BenchmarkDecodeBatch times the ingest decode of a 256-row, 44-column
// body beside the reference it replaces on the request path.
func BenchmarkDecodeBatch(b *testing.B) {
	body := benchBody(b, 256, 44)
	b.Run("scanner", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeBatch(body, &benchDecoded); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var batch Batch
			if err := json.Unmarshal(body, &batch); err != nil {
				b.Fatal(err)
			}
			if err := batch.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
