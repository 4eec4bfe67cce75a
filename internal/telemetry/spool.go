// Spool files make ingested telemetry durable for the continuous
// trainer. A spool is an internal/journal log — see that package for what
// is durable when, and what a reader may assume about a tail — whose
// segments are in the dataset frame format (header line with the columns,
// then one JSON array per row), so every sealed segment is directly
// loadable by dataset.ReadJSONL and apollo-train. What is the spool's own
// is the rows: one fixed column layout per directory, checked on every
// append and every read.

package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"apollo/internal/dataset"
	"apollo/internal/journal"
)

// DefaultSegmentBytes is the rotation threshold for spool segments.
const DefaultSegmentBytes = journal.DefaultSegmentBytes

// Spool appends telemetry rows durably under one directory.
type Spool struct {
	dir string
	log *journal.Log
	// columns is the row layout, fixed by the first append (or adopted
	// from the segments already there) and never changed after.
	columns  atomic.Pointer[[]string]
	appended atomic.Uint64
}

// OpenSpool opens (creating if needed) the spool at dir. Appends rotate
// to a new segment once the active one exceeds maxSegmentBytes
// (DefaultSegmentBytes when <= 0). If segments already exist, the layout
// of the first one with a whole header line is adopted (a segment left
// without one holds no rows) and writing resumes on a fresh segment, so a
// restarted daemon never appends mid-file.
func OpenSpool(dir string, maxSegmentBytes int64) (*Spool, error) {
	s := &Spool{dir: dir}
	var err error
	s.log, err = journal.Open(dir, maxSegmentBytes, func() ([]byte, error) { return dataset.HeaderLine(*s.columns.Load()) })
	if err != nil {
		return nil, err
	}
	segs, err := journal.Segments(dir)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		cols, err := readSegmentColumns(seg)
		if err != nil {
			return nil, fmt.Errorf("telemetry: reading spool %s: %w", dir, err)
		}
		if cols != nil {
			s.columns.Store(&cols)
			break
		}
	}
	return s, nil
}

// Columns returns the spool's row layout (nil before the first append of
// a fresh spool).
func (s *Spool) Columns() []string {
	if cols := s.columns.Load(); cols != nil {
		return slices.Clone(*cols)
	}
	return nil
}

// Appended returns the number of rows written over the spool's lifetime
// in this process.
func (s *Spool) Appended() uint64 { return s.appended.Load() }

// Append writes rows laid out by columns. The first append fixes the
// spool's layout; later appends must match it exactly or fail without
// writing anything, as does a row of another width or one holding a NaN
// or an infinity. Appending to a closed spool is journal.ErrClosed.
func (s *Spool) Append(columns []string, rows [][]float64) error {
	lines := make([]byte, 0, 8*len(columns)*len(rows)) // a count and its comma: about eight bytes
	for i, row := range rows {
		if len(row) != len(columns) {
			return fmt.Errorf("telemetry: spool row %d has %d values, want %d", i, len(row), len(columns))
		}
		var err error
		if lines, err = dataset.AppendRow(lines, row); err != nil {
			return fmt.Errorf("telemetry: spool row %d: %w", i, err)
		}
		lines = append(lines, '\n')
	}
	return s.write(columns, lines, len(rows))
}

// AppendDecoded writes the rows of a decoded wire batch, under Append's
// layout rule: the lines DecodeBatch checked and copied, as they are.
func (s *Spool) AppendDecoded(d *Decoded) error { return s.write(d.Columns, d.lines, d.NumRows) }

// write is the spool's one write path: it appends lines — rows frame
// lines laid out by columns — to the log in one Write.
func (s *Spool) write(columns []string, lines []byte, rows int) error {
	cols := s.columns.Load()
	if cols == nil {
		first := slices.Clone(columns)
		s.columns.CompareAndSwap(nil, &first) // one first append wins; the others are checked against it
		cols = s.columns.Load()
	}
	if !slices.Equal(*cols, columns) {
		return fmt.Errorf("telemetry: spool %s expects columns %v, got %v", s.dir, *cols, columns)
	}
	if rows == 0 {
		return nil
	}
	if err := s.log.Append(lines); err != nil {
		return err
	}
	s.appended.Add(uint64(rows))
	return nil
}

// Rotate seals the active segment so the next append starts a new one.
// Rotating an idle spool is a no-op.
func (s *Spool) Rotate() error { return s.log.Rotate() }

// Close seals the active segment and the spool: a later append fails.
func (s *Spool) Close() error { return s.log.Close() }

// readSegmentColumns parses a segment's header line. A segment whose
// header line is empty or torn — its writer died between creating it and
// writing the header — holds no rows and names no layout: nil, nil.
func readSegmentColumns(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return dataset.ParseHeader(line)
}

// Cursor tails a spool directory, returning only rows it has not
// returned before: a journal.Tail whose first line per segment must name
// the spool's columns and whose other lines must be rows of that width.
// It can follow a spool that another process is actively appending to.
type Cursor struct {
	mu      sync.Mutex //apollo:lockrank 41
	tail    *journal.Tail
	columns []string
}

// NewCursor returns a cursor over the spool at dir, positioned at the
// beginning (the first Poll returns everything already spooled).
func NewCursor(dir string) *Cursor { return &Cursor{tail: journal.NewTail(dir)} }

// Columns returns the spool layout seen so far (nil before any rows).
func (c *Cursor) Columns() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.columns)
}

// Poll reads every complete row appended since the previous Poll,
// returning nil when there is nothing new. A spool directory that does
// not exist yet reads as empty, so a trainer may start before the first
// batch arrives. A poll that fails returns no rows and moves nothing: the
// next one reads the same bytes again.
//
//apollo:lockok c.mu exists to serialize the cursor's segment reads and offset bookkeeping
func (c *Cursor) Poll() (*dataset.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var frame *dataset.Frame
	row := make([]float64, 0, len(c.columns))
	err := c.tail.Read(func(first bool, line []byte) error {
		if first {
			cols, err := dataset.ParseHeader(line)
			if err != nil {
				return err
			}
			if c.columns == nil {
				c.columns = cols
			} else if !slices.Equal(c.columns, cols) {
				return fmt.Errorf("columns changed: %v -> %v", c.columns, cols)
			}
			return nil
		}
		var err error
		if row, err = dataset.ParseRow(line, row[:0]); err != nil {
			return fmt.Errorf("bad row: %w", err)
		}
		if len(row) != len(c.columns) {
			return fmt.Errorf("row has %d values, want %d", len(row), len(c.columns))
		}
		if frame == nil {
			frame = dataset.NewFrame(c.columns...)
		}
		frame.AddRow(row)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return frame, nil
}
