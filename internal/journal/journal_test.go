package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

const testHeader = `{"format":"test"}` + "\n"

// openTest opens the log at dir with testHeader on every segment.
func openTest(t testing.TB, dir string, maxSegmentBytes int64) *Log {
	t.Helper()
	l, err := Open(dir, maxSegmentBytes, func() ([]byte, error) { return []byte(testHeader), nil })
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// readAll reads what tail has not returned yet, header lines marked "H:".
func readAll(t testing.TB, tail *Tail) []string {
	t.Helper()
	var got []string
	err := tail.Read(func(first bool, line []byte) error {
		if first {
			got = append(got, "H:"+string(line))
		} else {
			got = append(got, string(line))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("tail read: %v", err)
	}
	return got
}

// threeSegments writes a log of three segments — a header and two,
// three and one lines, no two lines of the log alike — and returns their
// paths.
func threeSegments(t testing.TB, dir string) []string {
	t.Helper()
	seg := 0
	l, err := Open(dir, 0, func() ([]byte, error) {
		seg++
		return []byte(fmt.Sprintf(`{"format":"test","seg":%d}`+"\n", seg)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, lines := range []string{"a1\na22\n", "b1\n\nb333\n", "c1\n"} {
		if err := l.Append([]byte(lines)); err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := Segments(dir)
	if err != nil || len(paths) != 3 {
		t.Fatalf("segments = %v, %v; want 3", paths, err)
	}
	return paths
}

// wholeLines is what a tail may return of one segment's bytes: the lines
// wholly inside them, the first marked as the header.
func wholeLines(data []byte) []string {
	var want []string
	for i := 0; ; i++ {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return want
		}
		line := string(data[:nl])
		if i == 0 {
			line = "H:" + line
		}
		want, data = append(want, line), data[nl+1:]
	}
}

// The contract, the only honest way: cut a three-segment log at every byte
// offset of every segment. A cold tail returns exactly the lines wholly
// before the cut, without error; once the bytes are back, the same tail
// returns the rest and nothing twice — segment by segment, the incremental
// reads concatenated are one cold read.
func TestTailAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	paths := threeSegments(t, dir)
	var whole [][]byte
	var cold []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		whole = append(whole, data)
		cold = append(cold, wholeLines(data)...)
	}
	if got := readAll(t, NewTail(dir)); !slices.Equal(got, cold) {
		t.Fatalf("cold read = %q, want %q", got, cold)
	}
	for seg, data := range whole {
		for cut := 0; cut <= len(data); cut++ {
			if err := os.WriteFile(paths[seg], data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			var want []string
			for i, d := range whole {
				if i == seg {
					d = d[:cut]
				}
				want = append(want, wholeLines(d)...)
			}
			tail := NewTail(dir)
			got := readAll(t, tail)
			if !slices.Equal(got, want) {
				t.Fatalf("segment %d cut at %d: read %q, want %q", seg+1, cut, got, want)
			}
			if again := readAll(t, tail); len(again) != 0 {
				t.Fatalf("segment %d cut at %d: an idle read returned %q", seg+1, cut, again)
			}
			if err := os.WriteFile(paths[seg], data, 0o644); err != nil {
				t.Fatal(err)
			}
			got = append(got, readAll(t, tail)...)
			for _, d := range whole {
				lines := wholeLines(d)
				ofSeg := func(line string) bool { return !slices.Contains(lines, line) }
				if inc := slices.DeleteFunc(slices.Clone(got), ofSeg); len(got) != len(cold) || !slices.Equal(inc, lines) {
					t.Fatalf("segment %d cut at %d: incremental reads add up to %q, a cold read to %q", seg+1, cut, got, cold)
				}
			}
		}
	}
}

// A closed log stays closed: Append is ErrClosed and creates no file, and
// Close again is nil. Rotate, by contrast, only seals the segment.
func TestAppendAfterCloseIsRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 0)
	if err := l.Append([]byte("one\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("two\n")); err != nil {
		t.Fatalf("append after rotate: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Close(); err != nil {
			t.Fatalf("close %d: %v", i+1, err)
		}
	}
	if err := l.Append([]byte("three\n")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatalf("rotate after close: %v", err)
	}
	if paths, _ := Segments(dir); len(paths) != 2 {
		t.Fatalf("segments after a refused append = %v, want the 2 written before it", paths)
	}
	hdr := "H:" + strings.TrimSuffix(testHeader, "\n")
	if got, want := readAll(t, NewTail(dir)), []string{hdr, "one", hdr, "two"}; !slices.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
}

// Appends racing Close: each either lands whole in a segment the close
// sealed or is refused; no descriptor under the log outlives Close.
func TestCloseRacesAppends(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 64) // rotate every few lines
	var wg sync.WaitGroup
	landed := make([][]string, 4)
	for w := range landed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				line := fmt.Sprintf("w%d-%d", w, i)
				if err := l.Append([]byte(line + "\n")); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("append: %v", err)
					}
					return
				}
				landed[w] = append(landed[w], line)
			}
		}()
	}
	for len(readAll(t, NewTail(dir))) < 50 {
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	var want, got []string
	for _, lines := range landed {
		want = append(want, lines...)
	}
	for _, line := range readAll(t, NewTail(dir)) {
		if !strings.HasPrefix(line, "H:") {
			got = append(got, line)
		}
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("the log holds %d lines, %d appends returned nil", len(got), len(want))
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to check for open segments: %v", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("%s is still open after Close", target)
		}
	}
}

// A writer that died mid-line leaves a torn tail. The log opened over it
// starts the next segment, and the torn bytes are never returned, before
// or after.
func TestRestartOverTornTail(t *testing.T) {
	dir := t.TempDir()
	paths := threeSegments(t, dir)
	last, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[2], append(last, "torn-by-a-cra"...), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := NewTail(dir)
	before := readAll(t, tail)

	l := openTest(t, dir, 0)
	if err := l.Append([]byte("d1\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(paths[2]); !bytes.HasSuffix(after, []byte("torn-by-a-cra")) {
		t.Fatalf("the restarted writer touched the torn segment: %q", after)
	}
	if paths, _ := Segments(dir); len(paths) != 4 || filepath.Base(paths[3]) != "seg-00000004.jsonl" {
		t.Fatalf("segments after the restart = %v, want a fourth", paths)
	}
	if got, want := readAll(t, tail), []string{"H:" + strings.TrimSuffix(testHeader, "\n"), "d1"}; !slices.Equal(got, want) {
		t.Fatalf("the tail read %q after the restart, want %q", got, want)
	}
	for _, line := range append(before, readAll(t, NewTail(dir))...) {
		if strings.Contains(line, "torn") {
			t.Fatalf("torn bytes were returned: %q", line)
		}
	}
}

// A write that fails part-way (ENOSPC, EIO) leaves a torn line behind it.
// The segment is sealed with the tear as its tail: the retry lands whole
// in the next segment instead of completing the torn bytes into a line
// that is not one, which would fail every later read at that line.
func TestFailedWriteSealsSegment(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 0)
	if err := l.Append([]byte("a1\n")); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(dir, 1)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("torn-by-eno"); err != nil { // what the failing write got out
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(seg) // the write itself fails
	if err != nil {
		t.Fatal(err)
	}
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	l.f = ro
	if err := l.Append([]byte("b1\n")); err == nil {
		t.Fatal("a write on a read-only handle succeeded")
	}
	if err := l.Append([]byte("b1\n")); err != nil {
		t.Fatalf("the retry after a failed write: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	hdr := "H:" + strings.TrimSuffix(testHeader, "\n")
	if got, want := readAll(t, NewTail(dir)), []string{hdr, "a1", hdr, "b1"}; !slices.Equal(got, want) {
		t.Fatalf("read %q after a failed write and its retry, want %q", got, want)
	}
}

// A line the caller refuses fails the whole read and moves no offset: the
// lines read before it, in that segment and in earlier ones, come back
// when the line is repaired, each once.
func TestRefusedLineMovesNothing(t *testing.T) {
	dir := t.TempDir()
	paths := threeSegments(t, dir)
	tail := NewTail(dir)
	refuse := errors.New("refused")
	seen := 0
	err := tail.Read(func(first bool, line []byte) error {
		seen++
		if string(line) == "b333" {
			return refuse
		}
		return nil
	})
	if !errors.Is(err, refuse) || !strings.Contains(err.Error(), paths[1]) {
		t.Fatalf("read = %v, want the refusal under %s", err, paths[1])
	}
	if seen != 7 || tail.Len() != 0 {
		t.Fatalf("the refused read saw %d lines and kept %d offsets; want 7 and 0", seen, tail.Len())
	}
	if got := readAll(t, tail); len(got) != 9 {
		t.Fatalf("the read after the refusal returned %d lines, want all 9: %q", len(got), got)
	}
	if got := readAll(t, tail); len(got) != 0 {
		t.Fatalf("and the one after it %q, want nothing", got)
	}
}

// FuzzTailRead: whatever bytes a segment holds and wherever it is cut, a
// tail does not panic, returns no line holding a newline, returns — cut
// read then full read — exactly the longest newline-terminated prefix,
// and its offset never moves back.
func FuzzTailRead(f *testing.F) {
	f.Add([]byte(testHeader+"[1,2]\n[3"), 20)
	f.Add([]byte("\n\n\n"), 1)
	f.Add([]byte("no newline at all"), 5)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if cut < 0 || cut > len(data) {
			cut = len(data)
		}
		dir := t.TempDir()
		path := segmentPath(dir, 1)
		tail := NewTail(dir)
		var got []byte
		offset := int64(0)
		for _, n := range []int{cut, len(data)} {
			if err := os.WriteFile(path, data[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			err := tail.Read(func(first bool, line []byte) error {
				if bytes.IndexByte(line, '\n') >= 0 {
					t.Fatalf("line %q holds a newline", line)
				}
				if first != (len(got) == 0) {
					t.Fatalf("line %q: first = %v after %d bytes", line, first, len(got))
				}
				got = append(append(got, line...), '\n')
				return nil
			})
			if err != nil {
				t.Fatalf("read of %d bytes: %v", n, err)
			}
			if tail.offsets[path] < offset {
				t.Fatalf("offset moved back: %d -> %d", offset, tail.offsets[path])
			}
			offset = tail.offsets[path]
		}
		if want := data[:bytes.LastIndexByte(data, '\n')+1]; !bytes.Equal(got, want) {
			t.Fatalf("read %q, want the newline-terminated prefix %q", got, want)
		}
	})
}

// A drained segment is sealed for the tail once lines arrive in a newer
// one: bytes written into it behind the writer's back are seen before
// that and not after, and its removal is still seen.
func TestTailSealsDrainedSegments(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir, 0)
	appendLines := func(lines string) {
		t.Helper()
		if err := l.Append([]byte(lines)); err != nil {
			t.Fatal(err)
		}
	}
	sneak := func(path, lines string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(lines); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendLines("a1\n")
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendLines("b1\n")
	first := segmentPath(dir, 1)
	tail := NewTail(dir)
	if got := readAll(t, tail); !slices.Equal(got, []string{"H:" + testHeader[:len(testHeader)-1], "a1", "H:" + testHeader[:len(testHeader)-1], "b1"}) {
		t.Fatalf("cold read = %q", got)
	}
	sneak(first, "a2\n")
	if got := readAll(t, tail); !slices.Equal(got, []string{"a2"}) || tail.sealed != "" {
		t.Fatalf("before any line in a newer segment: read %q, sealed %q; want a2 and nothing sealed", got, tail.sealed)
	}
	appendLines("b2\n")
	if got := readAll(t, tail); !slices.Equal(got, []string{"b2"}) || tail.sealed != first {
		t.Fatalf("read %q, sealed %q; want b2 and the first segment sealed", got, tail.sealed)
	}
	sneak(first, "a3\n")
	appendLines("b3\n")
	if got := readAll(t, tail); !slices.Equal(got, []string{"b3"}) {
		t.Fatalf("read %q from a sealed and a live segment, want b3 only", got)
	}
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	appendLines("b4\n")
	if got := readAll(t, tail); !slices.Equal(got, []string{"b4"}) || tail.Len() != 1 || tail.sealed != "" {
		t.Fatalf("after pruning: read %q, %d offsets, sealed %q; want b4, 1 and nothing", got, tail.Len(), tail.sealed)
	}
}

func TestSegmentSeq(t *testing.T) {
	for name, want := range map[string]int{
		"seg-00000001.jsonl": 1, "seg-12345678.jsonl": 12345678, "seg-123456789.jsonl": 123456789,
		"seg-00000000.jsonl": 0, "seg-0000001.jsonl": 0, "seg-012345678.jsonl": 0, "seg-+0000001.jsonl": 0,
		"seg--0000001.jsonl": 0, "seg-0000000a.jsonl": 0, "seg-00000001.json": 0, "xseg-00000001.jsonl": 0,
	} {
		seq, ok := segmentSeq(name)
		if ok != (want > 0) || seq != want && ok {
			t.Errorf("segmentSeq(%q) = %d, %v; want %d", name, seq, ok, want)
		}
		if ok && fmt.Sprintf(segmentName, seq) != name {
			t.Errorf("segmentSeq(%q) = %d, which segmentName spells otherwise", name, seq)
		}
	}
}
