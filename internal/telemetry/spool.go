// Spool files make ingested telemetry durable for the continuous
// trainer. A spool is a directory of numbered JSONL segments in the
// dataset frame format (header line with the columns, then one JSON
// array per row), so every sealed segment is directly loadable by
// dataset.ReadJSONL and apollo-train. The writer appends whole lines to
// the active segment and rotates to a fresh segment number once the
// active one exceeds the size cap — rotation switches files atomically
// under the spool lock and never renames, so a concurrently tailing
// reader can keep its per-segment byte offsets. The reader (Cursor)
// consumes only '\n'-terminated lines, which makes it safe to tail the
// active segment of a live writer in another process: a torn final line
// is simply left for the next poll.

package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"apollo/internal/dataset"
)

// DefaultSegmentBytes is the rotation threshold for spool segments. A
// segment is what its readers hold at once — a cold Cursor.Poll reads
// each whole, as does anything that loads one as a frame — so the
// threshold is their transient memory, not only a file count.
const DefaultSegmentBytes = 4 << 20

// segPrefix/segSuffix frame the zero-padded segment number.
const (
	segPrefix = "seg-"
	segSuffix = ".jsonl"
)

// Spool appends telemetry rows durably under one directory.
type Spool struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex //apollo:lockrank 40
	columns  []string
	seq      int
	f        *os.File
	size     int64
	appended uint64
}

// OpenSpool opens (creating if needed) the spool at dir. Appends rotate
// to a new segment once the active one exceeds maxSegmentBytes
// (DefaultSegmentBytes when <= 0). If segments already exist, their
// column layout is adopted and writing resumes on a fresh segment, so a
// restarted daemon never appends mid-file.
func OpenSpool(dir string, maxSegmentBytes int64) (*Spool, error) {
	if maxSegmentBytes <= 0 {
		maxSegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Spool{dir: dir, maxBytes: maxSegmentBytes}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		s.seq = segs[len(segs)-1]
		cols, err := readSegmentColumns(s.segmentPath(segs[0]))
		if err != nil {
			return nil, fmt.Errorf("telemetry: reading spool %s: %w", dir, err)
		}
		s.columns = cols
	}
	return s, nil
}

// Columns returns the spool's row layout (nil before the first append of
// a fresh spool).
func (s *Spool) Columns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.columns...)
}

// Appended returns the number of rows written over the spool's lifetime
// in this process.
func (s *Spool) Appended() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Append writes rows laid out by columns. The first append fixes the
// spool's layout; later appends must match it exactly or fail without
// writing anything, as does a row of another width or one holding a NaN
// or an infinity.
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
// lines laid out by columns — to the active segment in one Write.
//
//apollo:lockok s.mu exists to serialize segment file writes and rotation; encoding and checking the rows happen before it is taken
func (s *Spool) write(columns []string, lines []byte, rows int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.columns == nil {
		s.columns = append([]string(nil), columns...)
	} else if !slices.Equal(s.columns, columns) {
		return fmt.Errorf("telemetry: spool %s expects columns %v, got %v", s.dir, s.columns, columns)
	}
	if rows == 0 {
		return nil
	}
	if s.f == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	n, err := s.f.Write(lines)
	s.size += int64(n)
	if err != nil {
		return err
	}
	s.appended += uint64(rows)
	if s.size >= s.maxBytes {
		return s.rotateLocked()
	}
	return nil
}

// Rotate seals the active segment so the next append starts a new one.
// Rotating an idle spool is a no-op.
//
//apollo:lockok s.mu exists to serialize segment file writes and rotation
func (s *Spool) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.rotateLocked()
}

// Close seals the active segment.
func (s *Spool) Close() error { return s.Rotate() }

func (s *Spool) rotateLocked() error {
	err := s.f.Close()
	s.f, s.size = nil, 0
	return err
}

// openSegmentLocked starts the next segment and writes its header line.
func (s *Spool) openSegmentLocked() error {
	s.seq++
	f, err := os.OpenFile(s.segmentPath(s.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr, err := dataset.HeaderLine(s.columns)
	if err != nil {
		f.Close() //apollo:errok Close on the error path; the write error is already being returned
		return err
	}
	n, err := f.Write(hdr)
	if err != nil {
		f.Close() //apollo:errok Close on the error path; the write error is already being returned
		return err
	}
	s.f, s.size = f, int64(n)
	return nil
}

func (s *Spool) segmentPath(seq int) string { return segmentPath(s.dir, seq) }

// segmentPath names segment seq of the spool at dir, for writer and cursor alike.
func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix))
}

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// readSegmentColumns parses a segment's header line.
func readSegmentColumns(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, err
	}
	cols, err := dataset.ParseHeader(line)
	if err != nil {
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	return cols, nil
}

// Cursor tails a spool directory, returning only rows it has not
// returned before. It tracks a byte offset per segment, consumes only
// complete lines, and tolerates a partially written final line (left for
// the next poll), so it can follow a spool that another process is
// actively appending to. A poll reads only the bytes past each segment's
// offset: a segment whose size equals its offset costs one stat.
type Cursor struct {
	dir string

	mu      sync.Mutex //apollo:lockrank 41
	offsets map[int]int64
	columns []string
}

// NewCursor returns a cursor over the spool at dir, positioned at the
// beginning (the first Poll returns everything already spooled).
func NewCursor(dir string) *Cursor {
	return &Cursor{dir: dir, offsets: map[int]int64{}}
}

// Columns returns the spool layout seen so far (nil before any rows).
func (c *Cursor) Columns() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.columns...)
}

// Poll reads every complete row appended since the previous Poll,
// returning nil when there is nothing new. A spool directory that does
// not exist yet reads as empty, so a trainer may start before the first
// batch arrives.
//
//apollo:lockok c.mu exists to serialize the cursor's segment reads and offset bookkeeping
func (c *Cursor) Poll() (*dataset.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	segs, err := listSegments(c.dir)
	if err != nil {
		return nil, err
	}
	// A segment that left the directory takes its offset with it, so a
	// spool pruned for years does not grow the cursor.
	for seq := range c.offsets {
		if i := sort.SearchInts(segs, seq); i == len(segs) || segs[i] != seq {
			delete(c.offsets, seq)
		}
	}
	var frame *dataset.Frame
	for _, seq := range segs {
		path := segmentPath(c.dir, seq)
		if err := c.pollSegmentLocked(path, seq, &frame); err != nil {
			return nil, fmt.Errorf("telemetry: tailing %s: %w", path, err)
		}
	}
	return frame, nil
}

func (c *Cursor) pollSegmentLocked(path string, seq int, frame **dataset.Frame) error {
	info, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // raced a writer listing; next poll sees it
		}
		return err
	}
	offset := c.offsets[seq]
	if offset > info.Size() {
		// The segment shrank (operator intervention); restart it.
		offset = 0
	}
	if offset == info.Size() {
		return nil
	}
	buf, err := readTail(path, offset, info.Size()-offset)
	if err != nil {
		return err
	}
	// Consume only complete lines; a torn tail waits for the next poll.
	buf = buf[:bytes.LastIndexByte(buf, '\n')+1]
	consumed := int64(0)
	row := make([]float64, 0, len(c.columns))
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		line := buf[:nl]
		buf = buf[nl+1:]
		lineLen := int64(nl + 1)
		if offset+consumed == 0 {
			cols, err := dataset.ParseHeader(line)
			if err != nil {
				return err
			}
			if c.columns == nil {
				c.columns = cols
			} else if !slices.Equal(c.columns, cols) {
				return fmt.Errorf("columns changed: %v -> %v", c.columns, cols)
			}
			consumed += lineLen
			continue
		}
		if row, err = dataset.ParseRow(line, row[:0]); err != nil {
			return fmt.Errorf("bad row: %w", err)
		}
		if len(row) != len(c.columns) {
			return fmt.Errorf("row has %d values, want %d", len(row), len(c.columns))
		}
		if *frame == nil {
			*frame = dataset.NewFrame(c.columns...)
		}
		(*frame).AddRow(row)
		consumed += lineLen
	}
	c.offsets[seq] = offset + consumed
	return nil
}

// readTail reads up to n bytes of the file at path starting at offset;
// fewer when the file ends sooner.
func readTail(path string, offset, n int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil // removed since the stat; next poll drops it
		}
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, offset)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:got], nil
}
