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
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// Cursor tails one or more spool directories — its sources, named, one
// per fleet replica when a trainer learns from a whole fleet — and
// returns only rows it has not returned before, as one frame of one
// column layout. Each source is a journal.Tail whose first line per
// segment must name the cursor's columns and whose other lines must be
// rows of that width. It can follow spools that other processes are
// actively appending to.
type Cursor struct {
	mu      sync.Mutex //apollo:lockrank 41
	sources []source   // in name order
	columns []string
	failed  uint64 // source reads that failed
}

// SourceStat is what a cursor has read from one source.
type SourceStat struct {
	Name      string
	Rows      uint64    // rows returned over the cursor's life
	LastYield time.Time // when the source last yielded rows (the cursor's creation before it has)
}

type source struct {
	SourceStat
	tail *journal.Tail
}

// NewCursor returns a cursor over the spool at dir, one source named
// "local", positioned at the beginning (the first Poll returns everything
// already spooled).
func NewCursor(dir string) *Cursor { return newCursor(map[string]string{"local": dir}) }

// NewFleetCursor returns a cursor over one spool per source (name ->
// spool dir), positioned at the beginning. Names label the sources'
// counts; replica ids are the natural choice.
func NewFleetCursor(sources map[string]string) (*Cursor, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("telemetry: a cursor needs at least one source")
	}
	return newCursor(sources), nil
}

func newCursor(dirs map[string]string) *Cursor {
	c := &Cursor{}
	now := time.Now()
	for name, dir := range dirs {
		c.sources = append(c.sources, source{SourceStat{Name: name, LastYield: now}, journal.NewTail(dir)})
	}
	slices.SortFunc(c.sources, func(a, b source) int { return strings.Compare(a.Name, b.Name) })
	return c
}

// Columns returns the spool layout seen so far (nil before any rows).
func (c *Cursor) Columns() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.columns)
}

// Stats returns what the cursor has read from each source, in name
// order, and how many source reads have failed.
func (c *Cursor) Stats() ([]SourceStat, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stats := make([]SourceStat, len(c.sources))
	for i, src := range c.sources {
		stats[i] = src.SourceStat
	}
	return stats, c.failed
}

// Poll reads every complete row appended to any source since the
// previous Poll, in source-name order, returning nil when there is
// nothing new. A spool directory that does not exist yet reads as empty,
// so a trainer may start before the first batch arrives. A source that
// fails — a bad line, a layout other than the cursor's — is counted and
// skipped, and moves nothing: none of its rows are returned, and its next
// poll reads the same bytes again. The poll fails only when every source
// does.
//
//apollo:lockok c.mu exists to serialize the cursor's segment reads and offset bookkeeping
func (c *Cursor) Poll() (*dataset.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var frame *dataset.Frame
	var errs []error
	row := make([]float64, 0, len(c.columns))
	for i := range c.sources {
		src := &c.sources[i]
		columns, read := c.columns, 0
		err := src.tail.Read(func(first bool, line []byte) error {
			if first {
				cols, err := dataset.ParseHeader(line)
				if err != nil {
					return err
				}
				if c.columns == nil {
					c.columns = cols
				} else if !slices.Equal(c.columns, cols) {
					return fmt.Errorf("columns %v do not match %v", cols, c.columns)
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
			read++
			return nil
		})
		if err != nil {
			// The rows this source added leave the frame, and a layout it
			// set goes with them.
			c.columns, c.failed = columns, c.failed+1
			if frame != nil && frame.Len() == read {
				frame = nil
			} else if read > 0 {
				frame.Truncate(frame.Len() - read)
			}
			errs = append(errs, fmt.Errorf("%s: %w", src.Name, err))
			continue
		}
		if read > 0 {
			src.Rows += uint64(read)
			src.LastYield = time.Now()
		}
	}
	if len(errs) == len(c.sources) {
		return nil, fmt.Errorf("telemetry: %w", errors.Join(errs...))
	}
	return frame, nil
}
