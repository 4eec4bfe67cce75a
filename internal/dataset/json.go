package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// ParseHeader decodes a frame's header line and returns its columns.
func ParseHeader(line []byte) ([]string, error) {
	var hdr Header
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("bad frame header: %w", err)
	}
	if hdr.Format != FrameFormat {
		return nil, fmt.Errorf("unknown frame format %q (want %q)", hdr.Format, FrameFormat)
	}
	return hdr.Columns, nil
}

// WriteJSONL writes the frame in a line-delimited JSON format: a header
// object with the column names, then one array of values per row. The
// format streams (no whole-frame buffering) and appends cheaply, which
// suits long recording sessions better than CSV's quoting rules.
func (f *Frame) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(Header{Format: FrameFormat, Columns: f.cols}); err != nil {
		return err
	}
	for _, row := range f.rows {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return bw.Flush()
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
	i := skipSpace(line, 0)
	if hasNull(line, i) {
		i += 4
	} else if i == len(line) || line[i] != '[' {
		return nil, fmt.Errorf("row is not a JSON array")
	} else if i = skipSpace(line, i+1); i < len(line) && line[i] == ']' {
		i++
	} else {
		for {
			if hasNull(line, i) {
				row = append(row, 0)
				i += 4
			} else {
				end, v, err := scanNumber(line, i)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
				i = end
			}
			i = skipSpace(line, i)
			if i == len(line) {
				return nil, fmt.Errorf("unterminated array")
			}
			if line[i] == ']' {
				i++
				break
			}
			if line[i] != ',' {
				return nil, fmt.Errorf("unexpected %q in the row", line[i])
			}
			i = skipSpace(line, i+1)
		}
	}
	if i = skipSpace(line, i); i != len(line) {
		return nil, fmt.Errorf("unexpected %q after the row", line[i])
	}
	return row, nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
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
