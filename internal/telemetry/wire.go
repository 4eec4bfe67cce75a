// The wire batch without reflection over its rows. A wire row, a spool
// row and a frame row are the same text, "[n,n,…]": EncodeBatch writes
// rows with the frame's encoder (dataset.AppendRow); DecodeBatch checks
// them with the frame's scanner (dataset.ScanRows) while copying their
// bytes into spool lines, so POST /telemetry needs no Batch. json.Marshal
// of a Batch and json.Unmarshal into one + Validate stay the definition
// of the format; the tests and FuzzDecodeBatch hold the two to it.

package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"

	"apollo/internal/dataset"
)

// EncodeBatch appends b's wire form to dst: the bytes json.Marshal(b)
// writes. A NaN or an infinity in a row is an error.
func EncodeBatch(dst []byte, b *Batch) ([]byte, error) {
	hdr := *b
	hdr.Rows = nil
	text, err := json.Marshal(&hdr)
	if err != nil {
		return dst, err
	}
	// The header's one `,"rows":null` with bare quotes is the member: in a
	// string json.Marshal escapes every quote.
	null := bytes.Index(text, []byte(`,"rows":null`)) + len(`,"rows":`)
	head, tail := text[:null], text[null:]
	start := len(dst)
	dst = append(dst, head...)
	if b.Rows != nil {
		tail = tail[len("null"):]
		dst = append(dst, '[')
		for i, row := range b.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = dataset.AppendRow(dst, row); err != nil {
				return dst[:start], fmt.Errorf("telemetry: row %d: %w", i, err)
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, tail...), nil
}

// Decoded is a wire batch that passed DecodeBatch: the header members the
// service acts on, and the rows as spool lines — unexported, so only bytes
// the scanner passed can reach a segment (Spool.AppendDecoded).
type Decoded struct {
	Model         string
	Columns       []string
	SourceVersion int
	LoopID        string
	NumRows       int // how many rows the batch carries

	lines []byte // one frame line per row, reused by the next decode
}

// InvalidError is DecodeBatch's error for a body that is a well-formed
// batch but fails one of Batch.Validate's checks.
type InvalidError struct{ Err error }

func (e *InvalidError) Error() string { return e.Err.Error() }

// DecodeBatch decodes and validates a POST /telemetry body into d, whose
// line buffer it reuses. It accepts what json.Unmarshal into a Batch
// followed by Validate accepts, except a body whose top-level keys are not
// exact-case and unique (dataset.WalkObject) or that has anything but
// whitespace after the object; a Validate failure is an *InvalidError.
func DecodeBatch(body []byte, d *Decoded) error {
	var hdr Batch // the header members; Rows stays nil
	var rows dataset.Rows
	lines := d.lines[:0]
	err := dataset.WalkObject(body, []dataset.Field{
		{Name: "format", Into: &hdr.Format}, {Name: "model", Into: &hdr.Model}, {Name: "schema_hash", Into: &hdr.SchemaHash},
		{Name: "columns", Into: &hdr.Columns}, {Name: "source_version", Into: &hdr.SourceVersion}, {Name: "loop_id", Into: &hdr.LoopID},
		{Name: "rows"},
	}, func(_, i int) (end int, err error) {
		end, rows, err = dataset.ScanRows(body, i, nil, &lines)
		return end, err
	})
	*d = Decoded{lines: lines[:0]} // a refused body leaves nothing to append
	if err != nil {
		return fmt.Errorf("telemetry: decoding batch: %w", err)
	}
	if err := hdr.Validate(); err != nil {
		return &InvalidError{err}
	}
	if row, width, found := rows.Mismatch(len(hdr.Columns)); found {
		return &InvalidError{fmt.Errorf("telemetry: row %d has %d values, want %d", row, width, len(hdr.Columns))}
	}
	*d = Decoded{hdr.Model, hdr.Columns, hdr.SourceVersion, hdr.LoopID, rows.N, lines}
	return nil
}
