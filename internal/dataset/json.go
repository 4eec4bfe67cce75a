package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
)

// FrameFormat names the JSONL frame format, which this package owns:
// one header line, then one row per line, each a JSON array of numbers.
// Frame.WriteJSONL and telemetry's Spool write it; ReadJSONL and
// telemetry's Cursor read it, both through ParseHeader and ParseRow.
const FrameFormat = "apollo-frame-v1"

// Header is the first line of a JSONL frame.
type Header struct {
	Format  string   `json:"format"`
	Columns []string `json:"columns"`
}

// ParseHeader decodes a frame's header line and returns its columns,
// which are distinct.
func ParseHeader(line []byte) ([]string, error) {
	var hdr Header
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("bad frame header: %w", err)
	}
	if hdr.Format != FrameFormat {
		return nil, fmt.Errorf("unknown frame format %q (want %q)", hdr.Format, FrameFormat)
	}
	sorted := slices.Clone(hdr.Columns)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) != len(hdr.Columns) {
		return nil, errors.New("bad frame header: a column is named twice")
	}
	return hdr.Columns, nil
}

// HeaderLine returns the header line, newline included, of a frame laid
// out by cols.
func HeaderLine(cols []string) ([]byte, error) {
	line, err := json.Marshal(Header{Format: FrameFormat, Columns: cols})
	return append(line, '\n'), err
}

// WriteJSONL writes the frame in a line-delimited JSON format: a header
// object with the column names, then one array of values per row. The
// format streams (no whole-frame buffering) and appends cheaply, which
// suits long recording sessions better than CSV's quoting rules.
func (f *Frame) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	line, err := HeaderLine(f.cols)
	if err != nil {
		return err
	}
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for _, row := range f.rows {
		if line, err = AppendRow(line[:0], row); err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendRow appends row as a JSON array of numbers, byte for byte what
// encoding/json writes for a []float64 (a nil row is null). NaN and ±Inf
// have no JSON form: they are an error and nothing is appended.
func AppendRow(dst []byte, row []float64) ([]byte, error) {
	if row == nil {
		return append(dst, "null"...), nil
	}
	start := len(dst)
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		abs := math.Abs(v)
		if abs < 1e15 && float64(int64(v)) == v && (v != 0 || !math.Signbit(v)) {
			// An integer below 2^53 (but -0) is its own shortest decimal:
			// most of a telemetry row.
			dst = strconv.AppendInt(dst, int64(v), 10)
			continue
		}
		if !(abs <= math.MaxFloat64) {
			return dst[:start], fmt.Errorf("dataset: value %d of the row is %v, which JSON cannot carry", i, v)
		}
		// encoding/json's choice of format, and its e-09 written e-9.
		format := byte('f')
		if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, v, format, -1, 64)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-2] == '0' {
			dst[n-2], dst = dst[n-1], dst[:n-1]
		}
	}
	return append(dst, ']'), nil
}

// ReadJSONL reads a frame written by WriteJSONL, line by line: the
// header and every row is one line of any length, so a row spanning
// lines or two rows on one line is an error. A final line without its
// newline is still read.
func ReadJSONL(r io.Reader) (*Frame, error) {
	br := bufio.NewReader(r)
	// next returns the following line without its newline, io.EOF once
	// nothing follows the last one.
	next := func() ([]byte, error) {
		text, err := br.ReadBytes('\n')
		if err == io.EOF && len(text) > 0 {
			err = nil
		}
		return bytes.TrimSuffix(text, []byte{'\n'}), err
	}
	text, err := next()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading JSONL header: %w", err)
	}
	cols, err := ParseHeader(text)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading JSONL header: %w", err)
	}
	f := NewFrame(cols...)
	var row []float64
	for line := 2; ; line++ {
		if text, err = next(); err == io.EOF {
			return f, nil
		} else if err != nil {
			return nil, fmt.Errorf("dataset: JSONL line %d: %w", line, err)
		}
		if row, err = ParseRow(text, row[:0]); err != nil {
			return nil, fmt.Errorf("dataset: JSONL line %d: %w", line, err)
		}
		if len(row) != len(cols) {
			return nil, fmt.Errorf("dataset: JSONL line %d has %d values, want %d", line, len(row), len(cols))
		}
		f.AddRow(row)
	}
}

// SaveJSONL writes the frame to the named file.
func (f *Frame) SaveJSONL(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteJSONL(file); err != nil {
		file.Close() //apollo:errok Close on the error path; the write error is already being returned
		return err
	}
	return file.Close()
}

// LoadJSONL reads a frame from the named file.
func LoadJSONL(path string) (*Frame, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return ReadJSONL(file)
}

// ParseRow decodes one row line of a JSONL frame — a JSON array of
// numbers — and appends its values to row. It accepts exactly the lines json.Unmarshal
// accepts into a []float64, with the same values: JSON whitespace around
// tokens, the JSON number grammar (no leading '+' or '.', no hex, no
// Inf/NaN), a number out of float64 range is an error, a null element
// reads as 0 and a bare null as the empty row.
func ParseRow(line []byte, row []float64) ([]float64, error) {
	end, _, _, err := scanRow(line, skipSpace(line, 0), &row)
	if err != nil {
		return nil, err
	}
	if end = skipSpace(line, end); end != len(line) {
		return nil, fmt.Errorf("unexpected %q after the row", line[end])
	}
	return row, nil
}

// scanRow checks the row that starts at b[i] as ParseRow does and returns
// the index just past it and its width, the values appended to *vals if
// vals is set. plain: the row's text is a frame line as it stands, with no
// whitespace inside it and no null.
func scanRow(b []byte, i int, vals *[]float64) (end, width int, plain bool, err error) {
	if hasNull(b, i) {
		return i + 4, 0, false, nil
	}
	if i == len(b) || b[i] != '[' {
		return 0, 0, false, fmt.Errorf("row is not a JSON array")
	}
	var out []float64
	if vals != nil {
		out = *vals
	}
	start, tokens, nulls := i, 0, false // tokens: the bytes that are numbers
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, 0, i == start+1, nil
	}
	for {
		var v float64
		if hasNull(b, i) {
			nulls = true
			i += 4
		} else {
			from := i
			if i, v, err = scanNumber(b, i); err != nil {
				return 0, 0, false, err
			}
			tokens += i - from
		}
		if vals != nil {
			out = append(out, v)
		}
		width++
		if i = skipSpace(b, i); i == len(b) {
			return 0, 0, false, fmt.Errorf("unterminated array")
		}
		if b[i] == ']' {
			if vals != nil {
				*vals = out
			}
			// Plain: nothing but the numbers, their commas and the brackets.
			return i + 1, width, !nulls && i+1-start == tokens+width+1, nil
		}
		if b[i] != ',' {
			return 0, 0, false, fmt.Errorf("unexpected %q in the row", b[i])
		}
		i = skipSpace(b, i+1)
	}
}

// Rows is the shape of an array of rows that ScanRows walked.
type Rows struct {
	N        int // rows
	Width    int // values in the first
	Odd      int // index of the first row of another width; 0: none
	OddWidth int
}

// Mismatch returns the first row that does not hold want values.
func (r Rows) Mismatch(want int) (row, width int, found bool) {
	if r.N > 0 && r.Width != want {
		return 0, r.Width, true
	}
	return r.Odd, r.OddWidth, r.Odd > 0
}

// ScanRows checks the array of rows (or null) that starts at b[i], each
// row as ParseRow does, and returns the index just past it and its shape;
// widths are the caller's to judge. If set, *vals takes every value, row
// after row, and *lines every row as one frame line: its number tokens
// verbatim, 0 for a null, no whitespace, "\n" after the bracket — the text
// ParseRow reads back is the text that was checked. After an error either
// holds the rows before it.
func ScanRows(b []byte, i int, vals *[]float64, lines *[]byte) (end int, rows Rows, err error) {
	if hasNull(b, i) {
		return i + 4, rows, nil
	}
	if i == len(b) || b[i] != '[' {
		return 0, rows, fmt.Errorf("rows are not a JSON array")
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, rows, nil
	}
	for {
		end, width, plain, err := scanRow(b, i, vals)
		if err != nil {
			return 0, rows, fmt.Errorf("row %d: %w", rows.N, err)
		}
		if lines != nil {
			*lines = appendLine(*lines, b[i:end], width, plain)
		}
		if rows.N == 0 {
			rows.Width = width
		} else if width != rows.Width && rows.Odd == 0 {
			rows.Odd, rows.OddWidth = rows.N, width
		}
		rows.N++
		if i = skipSpace(b, end); i == len(b) {
			return 0, rows, fmt.Errorf("unterminated array of rows")
		}
		if b[i] == ']' {
			return i + 1, rows, nil
		}
		if b[i] != ',' {
			return 0, rows, fmt.Errorf("unexpected %q after row %d", b[i], rows.N-1)
		}
		i = skipSpace(b, i+1)
	}
}

// appendLine appends the text of a row scanRow passed as one frame line.
// Such a text holds 'n', 'u' and 'l' only as the letters of a null.
func appendLine(dst, text []byte, width int, plain bool) []byte {
	switch {
	case width == 0: // [], [ ] or a null row
		dst = append(dst, "[]"...)
	case plain:
		dst = append(dst, text...)
	default:
		for _, c := range text {
			switch c {
			case ' ', '\t', '\r', '\n', 'u', 'l':
			case 'n':
				dst = append(dst, '0')
			default:
				dst = append(dst, c)
			}
		}
	}
	return append(dst, '\n')
}

func skipSpace(b []byte, i int) int {
	// Every JSON whitespace byte is at most ' ': most bytes take one test.
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

func hasNull(b []byte, i int) bool {
	return len(b)-i >= 4 && string(b[i:i+4]) == "null"
}

// scanNumber checks b[i:] against the JSON number grammar and converts
// the token; it returns the index just past it. A plain integer of up to
// 15 digits — most of a telemetry row — is exact in a float64 and is
// converted in place; everything else goes through strconv.ParseFloat.
func scanNumber(b []byte, i int) (end int, v float64, err error) {
	start := i
	digits := func() int {
		from := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i - from
	}
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	intStart := i
	var n uint64 // the integer part; wraps past 19 digits, used up to 15
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		n = n*10 + uint64(b[i]-'0')
		i++
	}
	intDigits := i - intStart
	if intDigits == 0 || (intDigits > 1 && b[intStart] == '0') {
		return 0, 0, fmt.Errorf("invalid number at byte %d", start)
	}
	integer := true
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		if digits() == 0 {
			return 0, 0, fmt.Errorf("invalid number at byte %d", start)
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0, 0, fmt.Errorf("invalid number at byte %d", start)
		}
	}
	if integer && intDigits <= 15 {
		if v = float64(n); neg {
			v = -v
		}
		return i, v, nil
	}
	if v, err = strconv.ParseFloat(string(b[start:i]), 64); err != nil {
		return 0, 0, err
	}
	return i, v, nil
}
