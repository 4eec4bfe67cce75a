package dataset_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"apollo/internal/dataset"
	"apollo/internal/telemetry"
)

// FuzzParseHeader feeds arbitrary first lines to the frame header parser
// and to a spool cursor reading a segment that starts with them: neither
// panics, an accepted header round-trips through HeaderLine to the same
// columns, and the cursor returns rows under exactly those columns or an
// error.
func FuzzParseHeader(f *testing.F) {
	for _, line := range []string{
		`{"format":"apollo-frame-v1","columns":["a","b"]}`,
		`{"format":"apollo-frame-v1","columns":[]}`,
		`{"format":"apollo-frame-v1","columns":null}`,
		`{"format":"apollo-frame-v1"}`,
		`{"columns":["b","a"],"format":"apollo-frame-v1","extra":{"x":[1]}}`,
		`{"format":"apollo-frame-v1","columns":["a","a"]}`,
		`{"format":"apollo-frame-v1","columns":["é","\ud800",""]}`,
		`{"format":"apollo-frame-v0","columns":["a","b"]}`,
		`{"format":"apollo-frame-v1","columns":["a",1]}`,
		`{"format":"apollo-frame-v1","columns":["a","b"]} {}`,
		`[1,2]`, `null`, ``, `{`,
	} {
		f.Add([]byte(line), []byte(`[1,2]`))
	}
	f.Fuzz(func(t *testing.T, line, row []byte) {
		cols, err := dataset.ParseHeader(line)
		if err == nil {
			again, err := dataset.HeaderLine(cols)
			if err != nil {
				t.Fatalf("HeaderLine(%q): %v", cols, err)
			}
			back, err := dataset.ParseHeader(bytes.TrimSuffix(again, []byte{'\n'}))
			if err != nil || !slices.Equal(back, cols) {
				t.Fatalf("%q -> %q -> %q, %v: header does not round-trip", line, again, back, err)
			}
		}
		dir := t.TempDir()
		seg := slices.Concat(line, []byte{'\n'}, row, []byte{'\n'})
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.jsonl"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		frame, pollErr := telemetry.NewCursor(dir).Poll()
		if pollErr != nil || frame == nil || bytes.IndexByte(line, '\n') >= 0 {
			return
		}
		if err != nil {
			t.Fatalf("cursor read rows under header %q, which ParseHeader rejects: %v", line, err)
		}
		if !slices.Equal(frame.Cols(), cols) {
			t.Fatalf("cursor read columns %q, ParseHeader %q", frame.Cols(), cols)
		}
	})
}
