package telemetry

import (
	"path/filepath"
	"reflect"
	"testing"

	"apollo/internal/dataset"
	"apollo/internal/journal"
)

func TestSpoolAppendRotateAndCursorTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, 200) // tiny cap: force rotation quickly
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"a", "b"}
	cur := NewCursor(dir)

	if err := s.Append(cols, [][]float64{{1, 10}, {2, 20}}); err != nil {
		t.Fatal(err)
	}
	frame, err := cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Len() != 2 || frame.At(1, "b") != 20 {
		t.Fatalf("first poll = %v", frame)
	}

	// Column mismatch is rejected without writing.
	if err := s.Append([]string{"a"}, [][]float64{{1}}); err == nil {
		t.Error("mismatched columns accepted")
	}
	// Row width mismatch is rejected.
	if err := s.Append(cols, [][]float64{{1}}); err == nil {
		t.Error("short row accepted")
	}

	// Enough data to rotate at least once.
	for i := 0; i < 30; i++ {
		if err := s.Append(cols, [][]float64{{float64(i), float64(i) * 2}}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := journal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, found segments %v", segs)
	}
	frame, err = cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Len() != 30 {
		t.Fatalf("tail poll rows = %v, want 30", frame)
	}
	if f, err := cur.Poll(); err != nil || f != nil {
		t.Fatalf("idle poll = %v, %v", f, err)
	}
	if s.Appended() != 32 {
		t.Errorf("appended = %d, want 32", s.Appended())
	}

	// Sealed segments are plain dataset JSONL frames: loaded one by one
	// through dataset.LoadJSONL they hold exactly what a fresh cursor
	// reads from the directory.
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	all, err := NewCursor(dir).Poll()
	if err != nil || all == nil || all.Len() != 32 {
		t.Fatalf("fresh cursor read %v, %v; want 32 rows", all, err)
	}
	loaded := dataset.NewFrame(cols...)
	for _, seg := range segs {
		f, err := dataset.LoadJSONL(seg)
		if err != nil {
			t.Fatalf("sealed segment %s not a loadable frame: %v", seg, err)
		}
		loaded.Append(f)
	}
	if !reflect.DeepEqual(loaded.Cols(), all.Cols()) || loaded.Len() != all.Len() {
		t.Fatalf("segments load as %v x %d rows, the cursor read %v x %d", loaded.Cols(), loaded.Len(), all.Cols(), all.Len())
	}
	for i := 0; i < all.Len(); i++ {
		if !reflect.DeepEqual(loaded.Row(i), all.Row(i)) {
			t.Errorf("row %d: loaded %v, cursor read %v", i, loaded.Row(i), all.Row(i))
		}
	}
}

func TestCursorToleratesTornTailLine(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]string{"x"}, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer mid-line: append bytes with no trailing newline.
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	appendFile(t, seg, "[2")

	cur := NewCursor(dir)
	frame, err := cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Len() != 1 {
		t.Fatalf("torn-tail poll = %v, want the 1 complete row", frame)
	}

	// The line completes; the next poll picks up exactly the new row.
	appendFile(t, seg, "]\n")
	frame, err = cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Len() != 1 || frame.At(0, "x") != 2 {
		t.Fatalf("completed-line poll = %v, want row [2]", frame)
	}
}

func TestSpoolReopenResumesOnFreshSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]string{"x"}, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Columns(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("reopened columns = %v", got)
	}
	// Reopened spools reject a different layout.
	if err := s2.Append([]string{"y"}, [][]float64{{2}}); err == nil {
		t.Error("layout change accepted across reopen")
	}
	if err := s2.Append([]string{"x"}, [][]float64{{2}}); err != nil {
		t.Fatal(err)
	}
	segs, err := journal.Segments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments after reopen = %v (%v), want 2", segs, err)
	}
	cur := NewCursor(dir)
	frame, err := cur.Poll()
	if err != nil || frame == nil || frame.Len() != 2 {
		t.Fatalf("cursor over reopened spool = %v, %v", frame, err)
	}
}
