package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apollo/internal/dataset"
)

// spoolRowSeeds are the row scanner's seeds (dataset's FuzzParseRow), each
// one here the text of a spool line.
var spoolRowSeeds = func() []string {
	text, err := os.ReadFile("../dataset/testdata/rows.json")
	if err != nil {
		panic(err)
	}
	var seeds []string
	if err := json.Unmarshal(text, &seeds); err != nil {
		panic(err)
	}
	return seeds
}()

// checkSpoolRow holds the frame format to one definition: whatever line
// follows a header as the text of a segment, dataset.ReadJSONL and
// Cursor.Poll accept or reject it together and read the same values —
// and those are the values encoding/json decodes from the line, an
// oracle that does not share dataset.ParseRow with both.
func checkSpoolRow(t *testing.T, line string) {
	t.Helper()
	for _, cols := range [][]string{{}, {"a"}, {"a", "b"}, {"a", "b", "c"}} {
		hdr, err := json.Marshal(dataset.Header{Format: dataset.FrameFormat, Columns: cols})
		if err != nil {
			t.Fatal(err)
		}
		text := string(hdr) + "\n" + line + "\n"
		dir := t.TempDir()
		appendFile(t, filepath.Join(dir, "seg-00000001.jsonl"), text)
		polled, pollErr := NewCursor(dir).Poll()
		read, readErr := dataset.ReadJSONL(strings.NewReader(text))
		if (pollErr == nil) != (readErr == nil) {
			t.Fatalf("%q after %d columns: Cursor.Poll error %v, ReadJSONL error %v", line, len(cols), pollErr, readErr)
		}
		if readErr != nil {
			continue
		}
		if polled == nil {
			polled = dataset.NewFrame(cols...) // a poll that found no rows
		}
		if polled.Len() != read.Len() {
			t.Fatalf("%q after %d columns: Cursor.Poll read %d rows, ReadJSONL %d", line, len(cols), polled.Len(), read.Len())
		}
		for i := 0; i < read.Len(); i++ {
			for j, v := range read.Row(i) {
				if math.Float64bits(v) != math.Float64bits(polled.Row(i)[j]) {
					t.Fatalf("%q: row %d value %d is %v from ReadJSONL, %v from Cursor.Poll", line, i, j, v, polled.Row(i)[j])
				}
			}
		}
		if read.Len() == 0 {
			continue
		}
		var want []float64
		if err := json.Unmarshal([]byte(line), &want); err != nil || len(want) != len(cols) {
			t.Fatalf("%q after %d columns: polled as a row, but encoding/json reads %v, %v", line, len(cols), want, err)
		}
		for j, v := range want {
			if got := polled.Row(0)[j]; math.Float64bits(v) != math.Float64bits(got) {
				t.Fatalf("%q: value %d is %v from encoding/json, %v from Cursor.Poll", line, j, v, got)
			}
		}
	}
}

func TestReadJSONLAgreesWithCursor(t *testing.T) {
	for _, line := range spoolRowSeeds {
		checkSpoolRow(t, line)
	}
}

// FuzzParseSpoolRow is TestReadJSONLAgreesWithCursor on any line: the
// cursor reads a spool line as the frame reader does, and panics on
// nothing.
func FuzzParseSpoolRow(f *testing.F) {
	for _, line := range spoolRowSeeds {
		f.Add(line)
	}
	f.Fuzz(checkSpoolRow)
}

// appendFile grows the file at path by text, as a writer outside the
// spool would: no byte already there moves.
func appendFile(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// pollColumn polls and returns the first column of what came back.
func pollColumn(t *testing.T, cur *Cursor) []float64 {
	t.Helper()
	frame, err := cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil {
		return nil
	}
	return frame.Column(frame.Cols()[0])
}

func wantColumn(t *testing.T, what string, got []float64, want ...float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: read %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: read %v, want %v", what, got, want)
		}
	}
}

const xHeader = `{"format":"apollo-frame-v1","columns":["x"]}` + "\n"

// A line arriving in pieces is read once, when its newline lands, and a
// poll that finds only a torn piece moves nothing.
func TestCursorTailReadsTornLineOnce(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	cur := NewCursor(dir)

	appendFile(t, seg, xHeader[:10])
	wantColumn(t, "torn header", pollColumn(t, cur))
	appendFile(t, seg, xHeader[10:]+"[1]\n[2")
	wantColumn(t, "header, a row and a torn row", pollColumn(t, cur), 1)
	wantColumn(t, "nothing new", pollColumn(t, cur))
	appendFile(t, seg, "5")
	wantColumn(t, "still torn", pollColumn(t, cur))
	appendFile(t, seg, "]\n[3]\n")
	wantColumn(t, "the row completes", pollColumn(t, cur), 25, 3)
	wantColumn(t, "idle", pollColumn(t, cur))
}

// A segment holding only its header yields no rows and no error, and the
// rows that follow are read from the right offset.
func TestCursorHeaderOnlySegment(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	appendFile(t, seg, xHeader)
	cur := NewCursor(dir)
	wantColumn(t, "header only", pollColumn(t, cur))
	if cols := cur.Columns(); len(cols) != 1 || cols[0] != "x" {
		t.Fatalf("columns after the header = %v", cols)
	}
	appendFile(t, seg, "[4]\n")
	wantColumn(t, "first row", pollColumn(t, cur), 4)
}

// A segment that shrank below the cursor's offset is read again from its
// start, as it was when polls read whole segments.
func TestCursorRestartsShrunkSegment(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	appendFile(t, seg, xHeader+"[1]\n[2]\n[3]\n")
	cur := NewCursor(dir)
	wantColumn(t, "cold", pollColumn(t, cur), 1, 2, 3)

	if err := os.WriteFile(seg, []byte(xHeader+"[9]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "rewritten shorter", pollColumn(t, cur), 9)
	wantColumn(t, "idle after the restart", pollColumn(t, cur))
	appendFile(t, seg, "[10]\n")
	wantColumn(t, "tail after the restart", pollColumn(t, cur), 10)
}

// Rotation between two polls: the sealed segment's unread tail and the
// new segment's rows both arrive, in order, exactly once.
func TestCursorFollowsRotationBetweenPolls(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"x"}
	cur := NewCursor(dir)
	if err := s.Append(cols, [][]float64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "before rotation", pollColumn(t, cur), 1, 2)

	if err := s.Append(cols, [][]float64{{3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(cols, [][]float64{{4}, {5}}); err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "across rotation", pollColumn(t, cur), 3, 4, 5)
	wantColumn(t, "idle", pollColumn(t, cur))
	if err := s.Append(cols, [][]float64{{6}}); err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "tail of the new segment", pollColumn(t, cur), 6)
}

// Offsets go when their segment does: a cursor over a spool that is
// pruned as it rotates remembers only the segments still there.
func TestCursorForgetsRemovedSegments(t *testing.T) {
	dir := t.TempDir()
	cur := NewCursor(dir)
	for seq := 1; seq <= 50; seq++ {
		seg := filepath.Join(dir, fmt.Sprintf("seg-%08d.jsonl", seq))
		appendFile(t, seg, xHeader+fmt.Sprintf("[%d]\n", seq))
		wantColumn(t, "new segment", pollColumn(t, cur), float64(seq))
		if seq > 2 {
			if err := os.Remove(filepath.Join(dir, fmt.Sprintf("seg-%08d.jsonl", seq-2))); err != nil {
				t.Fatal(err)
			}
		}
		wantColumn(t, "after pruning", pollColumn(t, cur))
		if n := cur.sources[0].tail.Len(); n > 2 {
			t.Fatalf("after segment %d: %d offsets kept for 2 segments", seq, n)
		}
	}
}

// The scanner's errors surface as the cursor's "bad row" and width errors.
func TestCursorRejectsBadRows(t *testing.T) {
	for line, want := range map[string]string{
		`[1,2]`:   "row has 2 values, want 1",
		`null`:    "row has 0 values, want 1",
		`[0x10]`:  "bad row",
		`[1] [2]`: "bad row",
		``:        "bad row",
	} {
		dir := t.TempDir()
		appendFile(t, filepath.Join(dir, "seg-00000001.jsonl"), xHeader+"[1]\n"+line+"\n")
		cur := NewCursor(dir)
		if _, err := cur.Poll(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("line %q: poll error %v, want %q", line, err, want)
		}
		// The failed segment's offset did not move: the error repeats.
		if _, err := cur.Poll(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("line %q: second poll error %v, want %q", line, err, want)
		}
	}
}

// A bad line fails the whole poll and moves nothing: the rows read before
// it — in earlier segments too — are not lost with the frame the error
// dropped. They come back, each once, when the line is repaired.
func TestCursorKeepsRowsBehindABadLine(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"x"}
	if err := s.Append(cols, [][]float64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(cols, [][]float64{{3}}); err != nil {
		t.Fatal(err)
	}
	seg2 := filepath.Join(dir, "seg-00000002.jsonl")
	good, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, seg2, "[oops]\n")
	cur := NewCursor(dir)
	if frame, err := cur.Poll(); err == nil || !strings.Contains(err.Error(), "bad row") || frame != nil {
		t.Fatalf("poll over a bad line = %v, %v; want a bad-row error and no frame", frame, err)
	}
	if err := os.WriteFile(seg2, good, 0o644); err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "after the repair", pollColumn(t, cur), 1, 2, 3)
	wantColumn(t, "idle", pollColumn(t, cur))
}

// fillSpool appends n rows to the spool at dir, counting up from base in
// column x, and seals the spool.
func fillSpool(t *testing.T, dir string, n int, base float64) {
	t.Helper()
	sp, err := OpenSpool(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{base + float64(i), 0}
	}
	if err := sp.Append([]string{"x", "y"}, rows); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

// sourceRows returns the cursor's rows per source and its failed reads.
func sourceRows(cur *Cursor) (map[string]uint64, uint64) {
	stats, failed := cur.Stats()
	rows := map[string]uint64{}
	for _, s := range stats {
		rows[s.Name] = s.Rows
	}
	return rows, failed
}

// One cursor over a fleet's spools returns their union, in source-name
// order, and counts what each source yielded and when.
func TestCursorUnionsSpools(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	fillSpool(t, dirB, 5, 200)
	fillSpool(t, dirA, 3, 100)
	cur, err := NewFleetCursor(map[string]string{"b": dirB, "a": dirA})
	if err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "cold union", pollColumn(t, cur), 100, 101, 102, 200, 201, 202, 203, 204)
	if rows, failed := sourceRows(cur); rows["a"] != 3 || rows["b"] != 5 || failed != 0 {
		t.Fatalf("per-source rows %v, %d failed reads", rows, failed)
	}
	wantColumn(t, "quiet poll", pollColumn(t, cur))
	// New rows on one source only still flow.
	fillSpool(t, dirB, 2, 300)
	wantColumn(t, "incremental", pollColumn(t, cur), 300, 301)
	stats, _ := cur.Stats()
	if stats[0].Name != "a" || stats[1].Name != "b" || !stats[0].LastYield.Before(stats[1].LastYield) {
		t.Fatalf("idle source does not show more lag: %+v", stats)
	}
	if _, err := NewFleetCursor(nil); err == nil {
		t.Fatal("empty source set accepted")
	}
}

// A source of another column layout than the cursor's fails every poll
// and never enters the window; the healthy source keeps flowing.
func TestCursorSkipsMismatchedSource(t *testing.T) {
	dirA, dirBad := t.TempDir(), t.TempDir()
	fillSpool(t, dirA, 4, 0)
	sp, err := OpenSpool(dirBad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Append([]string{"wrong", "layout"}, [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	sp.Close()
	cur, err := NewFleetCursor(map[string]string{"a": dirA, "z": dirBad})
	if err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "healthy source past a mismatched one", pollColumn(t, cur), 0, 1, 2, 3)
	if rows, failed := sourceRows(cur); rows["a"] != 4 || rows["z"] != 0 || failed != 1 {
		t.Fatalf("after the first poll: per-source rows %v, %d failed reads; want a=4 z=0, 1", rows, failed)
	}
	wantColumn(t, "the mismatched source again", pollColumn(t, cur))
	if rows, failed := sourceRows(cur); rows["z"] != 0 || failed != 2 {
		t.Fatalf("after the second poll: per-source rows %v, %d failed reads; want z=0, 2", rows, failed)
	}
}

// A source whose spool directory does not exist yet — a replica that has
// ingested nothing — reads as empty.
func TestCursorToleratesAbsentSpool(t *testing.T) {
	dirA := t.TempDir()
	fillSpool(t, dirA, 2, 0)
	cur, err := NewFleetCursor(map[string]string{"a": dirA, "ghost": t.TempDir() + "/never"})
	if err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "poll with an absent source", pollColumn(t, cur), 0, 1)
	if _, failed := cur.Stats(); failed != 0 {
		t.Fatalf("an absent spool counted %d failed reads", failed)
	}
}

// A source that fails partway through its rows moves nothing: the poll
// returns the healthy sources' rows and none of the failed one's, and
// once the failed source is repaired its rows arrive exactly once.
func TestCursorPartialFailureMovesNothing(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	fillSpool(t, dirA, 2, 100)
	fillSpool(t, dirB, 3, 200)
	seg := filepath.Join(dirB, "seg-00000001.jsonl")
	good, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, seg, "[oops]\n")
	cur, err := NewFleetCursor(map[string]string{"a": dirA, "b": dirB})
	if err != nil {
		t.Fatal(err)
	}
	wantColumn(t, "a healthy source beside a bad line", pollColumn(t, cur), 100, 101)
	if rows, failed := sourceRows(cur); rows["a"] != 2 || rows["b"] != 0 || failed != 1 {
		t.Fatalf("per-source rows %v, %d failed reads; want a=2 b=0, 1", rows, failed)
	}
	wantColumn(t, "b still failing", pollColumn(t, cur))
	if err := os.WriteFile(seg, good, 0o644); err != nil {
		t.Fatal(err)
	}
	fillSpool(t, dirA, 1, 102)
	wantColumn(t, "after the repair", pollColumn(t, cur), 102, 200, 201, 202)
	wantColumn(t, "idle", pollColumn(t, cur))
	if rows, failed := sourceRows(cur); rows["a"] != 3 || rows["b"] != 3 || failed != 2 {
		t.Fatalf("per-source rows %v, %d failed reads; want a=3 b=3, 2", rows, failed)
	}
}

// A bad line in the middle of one source's rows, which fill the frame
// past a block of rows, drops exactly that source's rows: the sources
// polled before and after it arrive whole and in order.
func TestCursorBadLineMidSourceDropsItsRows(t *testing.T) {
	dirs := map[string]string{"a": t.TempDir(), "b": t.TempDir(), "c": t.TempDir()}
	fillSpool(t, dirs["a"], 700, 0)
	fillSpool(t, dirs["b"], 900, 10000)
	appendFile(t, filepath.Join(dirs["b"], "seg-00000001.jsonl"), "[1,\n")
	fillSpool(t, dirs["b"], 600, 20000)
	fillSpool(t, dirs["c"], 500, 30000)
	cur, err := NewFleetCursor(dirs)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for i := range 700 {
		want = append(want, float64(i))
	}
	for i := range 500 {
		want = append(want, float64(30000+i))
	}
	wantColumn(t, "sources around a bad line", pollColumn(t, cur), want...)
	if rows, failed := sourceRows(cur); rows["a"] != 700 || rows["b"] != 0 || rows["c"] != 500 || failed != 1 {
		t.Fatalf("per-source rows %v, %d failed reads; want a=700 b=0 c=500, 1", rows, failed)
	}
}

var benchFrame *dataset.Frame

// BenchmarkCursorPollIncr times the steady-state poll: 2000 fresh
// 44-column rows shaped like Table I's (tableIFrame) behind a 100k-row
// spool already read.
func BenchmarkCursorPollIncr(b *testing.B) {
	const width, spooled, fresh = 44, 100000, 2000
	dir := b.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		b.Fatal(err)
	}
	rng := dataset.NewRNG(1)
	cols := tableIFrame(rng, 0, width).Cols()
	rows := func(n int) [][]float64 {
		frame := tableIFrame(rng, n, width)
		out := make([][]float64, n)
		for i := range out {
			out[i] = frame.Row(i)
		}
		return out
	}
	for n := 0; n < spooled; n += fresh {
		if err := s.Append(cols, rows(fresh)); err != nil {
			b.Fatal(err)
		}
	}
	cur := NewCursor(dir)
	if frame, err := cur.Poll(); err != nil || frame.Len() != spooled {
		b.Fatalf("cold poll: %v, %v", frame, err)
	}
	batch := rows(fresh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.Append(cols, batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if benchFrame, err = cur.Poll(); err != nil || benchFrame.Len() != fresh {
			b.Fatalf("incremental poll: %v, %v", benchFrame, err)
		}
	}
	b.ReportMetric(float64(fresh)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
