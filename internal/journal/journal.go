// Package journal is the module's one durable log: a directory of
// numbered JSONL segments, seg-00000001.jsonl upward, written by one Log
// and followed by any number of Tails, in this process or another. The
// telemetry spool and the loop journals are both this log; what they add
// is what a line means. The contract is stated here and nowhere else.
//
// A segment is its creator's header line, then lines. A Log creates each
// segment exclusively (O_EXCL) under the next number, never renames and
// never reopens one: a Log opened over existing segments starts the next
// number, so whatever a dead writer left — a torn last line included —
// is never appended to. Append creates a segment and then writes its
// header, so a writer that dies (or fails a write) between the two leaves
// a segment that is empty or holds a torn header: it has no lines, and a
// reader takes its layout from the first segment with a whole header
// line, as telemetry.OpenSpool does.
//
//   - Append writes whole '\n'-terminated lines with one Write under the
//     log's lock. At nil the bytes are in the kernel: they survive the
//     process being killed (kill -9), not the machine losing power, and
//     every Tail sees all of them or, for a moment, a torn prefix. An
//     Append that fails may leave a torn tail; nothing was acknowledged.
//   - Rotate (and an Append that fills the segment) seals the segment:
//     the file is closed and the next Append creates the next one. It
//     adds no durability.
//   - Close seals the segment, fsyncs it and the directory — so a clean
//     shutdown also survives power loss, off every acknowledged path —
//     and seals the log: a later Append is ErrClosed and creates nothing.
//     Close again is nil.
//   - Tail.Read returns each complete line once, in segment then byte
//     order, reading only the bytes past its offsets. A torn tail waits
//     for its newline (for ever, if its writer died: torn bytes are never
//     returned). A segment that shrank below its offset is read again
//     from its start; one that left the directory takes its offset with
//     it. Offsets move only when a whole Read succeeded, so a line the
//     caller refused, and everything read beside it, comes back.
//
// What is not here: fsync before an acknowledgement or at rotation
// (ROADMAP item 8; a benchmark PR has to price it).
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// DefaultSegmentBytes is the rotation threshold when Open is given none.
// A cold Tail.Read holds a whole segment at once, so the threshold is a
// reader's transient memory, not only a file count.
const DefaultSegmentBytes = 4 << 20

// segmentName is the one spelling of a segment's file name.
const segmentName = "seg-%08d.jsonl"

// ErrClosed is what Append returns once Close has sealed the log.
var ErrClosed = errors.New("journal: log is closed")

// Log appends lines durably under one directory. It is safe for
// concurrent use.
type Log struct {
	dir      string
	maxBytes int64
	header   func() ([]byte, error)

	mu     sync.Mutex //apollo:lockrank 40
	seq    int
	f      *os.File
	size   int64
	closed bool
}

// Open opens (creating if needed) the log at dir. Appends rotate to a new
// segment once the active one reaches maxSegmentBytes (DefaultSegmentBytes
// when <= 0); header is asked for each new segment's first line.
func Open(dir string, maxSegmentBytes int64, header func() ([]byte, error)) (*Log, error) {
	if maxSegmentBytes <= 0 {
		maxSegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, maxBytes: maxSegmentBytes, header: header}
	if len(segs) > 0 {
		if _, err := fmt.Sscanf(filepath.Base(segs[len(segs)-1]), segmentName, &l.seq); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Append writes lines — whole lines, each ending in '\n' — to the active
// segment, first creating it under its header line when there is none.
// Empty lines still create the segment.
//
//apollo:lockok l.mu exists to serialize segment creation, writes and sealing; callers encode and check their lines before calling
func (l *Log) Append(lines []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		hdr, err := l.header()
		if err != nil {
			return err
		}
		l.seq++
		f, err := os.OpenFile(segmentPath(l.dir, l.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		n, err := f.Write(hdr)
		if err != nil {
			return errors.Join(err, f.Close())
		}
		l.f, l.size = f, int64(n)
	}
	n, err := l.f.Write(lines)
	l.size += int64(n)
	if err != nil {
		return err
	}
	if l.size >= l.maxBytes {
		return l.sealLocked()
	}
	return nil
}

// Rotate seals the active segment so the next Append starts a new one.
// Rotating an idle or closed log is a no-op.
//
//apollo:lockok l.mu exists to serialize segment creation, writes and sealing
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealLocked()
}

// Close seals the active segment, syncs it and the directory, and seals
// the log.
//
//apollo:lockok l.mu exists to serialize segment creation, writes and sealing; the syncs run once, at shutdown
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.f != nil {
		err = l.f.Sync()
	}
	err = errors.Join(err, l.sealLocked())
	d, derr := os.Open(l.dir)
	if derr != nil {
		return errors.Join(err, derr)
	}
	return errors.Join(err, d.Sync(), d.Close())
}

func (l *Log) sealLocked() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f, l.size = nil, 0
	return err
}

func segmentPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf(segmentName, seq))
}

// Segments returns the paths of the segments under dir, oldest first. A
// directory that does not exist yet lists as empty.
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir) // sorted by name: zero-padded numbers are in order
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		num, _ := strings.CutPrefix(strings.TrimSuffix(e.Name(), ".jsonl"), "seg-")
		if seq, err := strconv.Atoi(num); err == nil && seq > 0 && !e.IsDir() && e.Name() == fmt.Sprintf(segmentName, seq) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return paths, nil
}

// Tail follows the log at a directory, returning only lines it has not
// returned before; see the package comment for what it promises. A Tail
// is one reader's position: its owner serializes Reads.
type Tail struct {
	dir     string
	offsets map[string]int64 // by segment path
}

// NewTail returns a tail over the log at dir, positioned at the beginning
// (the first Read returns everything already there). The directory need
// not exist yet: it reads as empty.
func NewTail(dir string) *Tail { return &Tail{dir: dir} }

// Len is the number of segments the tail holds an offset for.
func (t *Tail) Len() int { return len(t.offsets) }

// Read calls line with every complete line appended since the last Read
// that returned nil — without its newline, valid only during the call;
// first marks a segment's header line. An error from line, wrapped with
// the segment's path, ends the Read and leaves the tail where it was.
func (t *Tail) Read(line func(first bool, line []byte) error) error {
	segs, err := Segments(t.dir)
	if err != nil {
		return err
	}
	next := make(map[string]int64, len(segs))
	for _, path := range segs {
		if next[path], err = readFrom(path, t.offsets[path], line); err != nil {
			return fmt.Errorf("tailing %s: %w", path, err)
		}
	}
	t.offsets = next
	return nil
}

// readFrom feeds line the complete lines of the segment at path past
// offset and returns the offset after them. A segment whose size equals
// its offset costs one stat.
func readFrom(path string, offset int64, line func(first bool, line []byte) error) (int64, error) {
	info, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return offset, nil // pruned since the listing; the next Read drops it
	}
	if err != nil || offset == info.Size() {
		return offset, err
	}
	if offset > info.Size() {
		offset = 0 // the segment shrank (operator intervention): restart it
	}
	f, err := os.Open(path)
	if err != nil {
		return offset, err
	}
	defer f.Close()
	buf := make([]byte, info.Size()-offset)
	n, err := f.ReadAt(buf, offset)
	if err != nil && err != io.EOF {
		return offset, err
	}
	buf = buf[:bytes.LastIndexByte(buf[:n], '\n')+1] // a torn tail waits
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if err := line(offset == 0, buf[:nl]); err != nil {
			return offset, err
		}
		buf = buf[nl+1:]
		offset += int64(nl + 1)
	}
	return offset, nil
}
