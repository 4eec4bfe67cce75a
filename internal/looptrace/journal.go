// Journal files make loop events durable and stitchable across
// processes. A journal is one JSONL file per tracer: a header line
// identifying the format and actor, then one self-contained event
// object per line (each line repeats the actor, so a stitcher can
// concatenate journals without header bookkeeping and a torn tail line
// costs one event, not the file). Files open in append mode — a
// restarted daemon continues its journal, writing a fresh header line,
// which readers skip like any other header.
//
// Torn-tail contract: a crash can leave the last line unterminated.
// OpenJournal terminates such a tail before its header, so the torn
// fragment stays one (unparseable) line of its own; ReadJournal skips
// and counts lines that are not valid JSON and ignores an unterminated
// tail. Readers therefore get every intact event, never an error for a
// tear, and never a duplicate. A line that parses but declares another
// format is still an error — that is a foreign file, not a tear.

package looptrace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"apollo/internal/bg"
)

// JournalFormatID identifies the loop-journal JSONL format (also used
// by the /debug/apollo/loop capture).
const JournalFormatID = "apollo-loop-v1"

// journalHeader is the first line written on every open of a journal.
type journalHeader struct {
	Format string `json:"format"`
	Actor  string `json:"actor"`
	OpenNS int64  `json:"open_unix_ns"`
}

// EventJSON is the wire/disk form of an Event: journal lines, debug
// captures, and stitched reports all carry this shape.
type EventJSON struct {
	Kind    string  `json:"kind"`
	Seq     uint64  `json:"seq"`
	WallNS  int64   `json:"wall_ns"`
	Actor   string  `json:"actor,omitempty"`
	Model   string  `json:"model,omitempty"`
	Loop    string  `json:"loop,omitempty"`
	Peer    string  `json:"peer,omitempty"`
	Version int32   `json:"version,omitempty"`
	Parent  int32   `json:"parent,omitempty"`
	Rows    int64   `json:"rows,omitempty"`
	DurNS   float64 `json:"dur_ns,omitempty"`
	A       float64 `json:"a,omitempty"`
	B       float64 `json:"b,omitempty"`
}

// toJSON renders an event for the given actor.
func (e *Event) toJSON(actor string) EventJSON {
	return EventJSON{
		Kind:    e.Kind.String(),
		Seq:     e.Seq,
		WallNS:  e.WallNS,
		Actor:   actor,
		Model:   e.ModelName(),
		Loop:    e.LoopID(),
		Peer:    e.Peer(),
		Version: e.Version,
		Parent:  e.Parent,
		Rows:    e.Rows,
		DurNS:   e.DurNS,
		A:       e.A,
		B:       e.B,
	}
}

// journalWriter buffers JSONL appends to one journal file.
type journalWriter struct {
	f  *os.File
	bw *bufio.Writer
}

func (j *journalWriter) append(actor string, ev *Event) error {
	line, err := json.Marshal(ev.toJSON(actor))
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = j.bw.Write(line)
	return err
}

func (j *journalWriter) flush() error { return j.bw.Flush() }

// JournalPath returns the journal file a tracer for actor writes under
// dir: loop-<actor>.jsonl with path separators and spaces flattened.
func JournalPath(dir, actor string) string {
	s := strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '-'
		}
		return r
	}, actor)
	return filepath.Join(dir, "loop-"+s+".jsonl")
}

// OpenJournal attaches a durable journal under dir (created if needed):
// subsequent flushes append this tracer's events to
// JournalPath(dir, actor). Opening writes a header line immediately so
// an idle process still leaves an identifiable journal.
func (t *Tracer) OpenJournal(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(JournalPath(dir, t.actor), os.O_CREATE|os.O_APPEND|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := writeJournalHeader(f, t.actor); err != nil {
		f.Close() //apollo:errok Close on the error path; the header error is already being returned
		return err
	}
	t.mu.Lock()
	old := t.journal
	t.journal = &journalWriter{f: f, bw: bufio.NewWriter(f)}
	t.mu.Unlock()
	if old != nil { // swapped out under the lock; only this goroutine holds it now
		old.flush()   //apollo:errok replacing a journal mid-run is a test/tooling move; the old file's tail is best-effort
		old.f.Close() //apollo:errok same: the new journal is what matters now
	}
	return nil
}

// writeJournalHeader appends a header line to a journal just opened. A
// non-empty file that does not end in a newline was torn by a writer that
// died mid-append: the fragment is terminated before the header.
func writeJournalHeader(f *os.File, actor string) error {
	hdr, err := json.Marshal(journalHeader{Format: JournalFormatID, Actor: actor, OpenNS: time.Now().UnixNano()})
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err != nil || last[0] != '\n' {
			hdr = append([]byte{'\n'}, hdr...)
		}
	}
	_, err = f.Write(append(hdr, '\n'))
	return err
}

// Flush drains the ring into the retained window and the journal (if
// one is attached) and syncs the journal's buffer to the file.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drainLocked()
}

// Close flushes and detaches the journal. The tracer stays usable
// (Emit, Snapshot); only durability stops. Safe on a nil tracer, like Emit.
//
//apollo:lockok t.mu serializes the cold consumer side (journal flush, debug capture); never on an emit path
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.drainLocked()
	if t.journal != nil {
		if cerr := t.journal.f.Close(); err == nil {
			err = cerr
		}
		t.journal = nil
	}
	return err
}

// Start flushes the tracer every interval until ctx is done, then does
// a final flush, and reports completion on the returned channel. A flush
// that fails is tried again at the next tick; Close reports what persists.
func (t *Tracer) Start(ctx context.Context, interval time.Duration) <-chan struct{} {
	return bg.New(ctx, nil).Every("loop-journal", interval, true, t.Flush)
}

// NewLoopID mints a correlation ID for one retrain cycle: a fixed-width
// token derived from the model name, the parent version, and the mint
// time, unique per trainer process and comma-free (it rides inside
// multi-label metric values).
func NewLoopID(model string, parent int, wallNS int64) string {
	var h uint64 = 14695981039346656037 // FNV-64a
	for i := 0; i < len(model); i++ {
		h ^= uint64(model[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("L%016x-%08x", h^uint64(wallNS), uint32(parent)<<24|uint32(wallNS)&0xffffff)
}

// ReadJournal parses one journal file per the torn-tail contract (see
// the file comment): lines that are not valid JSON are skipped and
// counted in skipped, an unterminated tail is ignored, and header lines
// from restarts are consumed. Events missing an actor field inherit the
// most recent header's actor.
func ReadJournal(path string) (events []EventJSON, skipped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	actor := ""
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail: the writer is mid-append
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Format string `json:"format"`
			Actor  string `json:"actor"`
		}
		if json.Unmarshal(line, &probe) != nil {
			skipped++ // a torn line a later open terminated
			continue
		}
		if probe.Format != "" {
			if probe.Format != JournalFormatID {
				return nil, skipped, fmt.Errorf("looptrace: %s has format %q, want %q", path, probe.Format, JournalFormatID)
			}
			actor = probe.Actor
			continue
		}
		var ev EventJSON
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, skipped, fmt.Errorf("looptrace: %s: bad event: %w", path, err)
		}
		if ev.Actor == "" {
			ev.Actor = actor
		}
		events = append(events, ev)
	}
	return events, skipped, nil
}

// ReadJournalDir parses every loop-*.jsonl journal under dir and
// returns the union of their events (unsorted; Stitch orders them) and
// the total of skipped lines.
func ReadJournalDir(dir string) (all []EventJSON, skipped int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "loop-*.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		events, n, err := ReadJournal(p)
		if err != nil {
			return nil, skipped, err
		}
		all = append(all, events...)
		skipped += n
	}
	return all, skipped, nil
}
