// Journals make loop events durable and stitchable across processes. A
// tracer's journal is an internal/journal log — see that package for what
// is durable when, and what a reader may assume about a tail — in its own
// directory, <dir>/loop-<actor>/: every segment opens with a header line
// identifying the format and actor, then holds one self-contained event
// object per line (each line repeats the actor, so a stitcher can merge
// journals without header bookkeeping). A restarted daemon continues on
// the next segment; whatever line its predecessor died in is never read.
// A line that is complete and still not an event, or a header declaring
// another format, is an error — that is a foreign file, not a tear.

package looptrace

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"apollo/internal/journal"
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

// JournalPath returns the journal directory a tracer for actor writes
// under dir: loop-<actor> with path separators and spaces flattened.
func JournalPath(dir, actor string) string {
	s := strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '-'
		}
		return r
	}, actor)
	return filepath.Join(dir, "loop-"+s)
}

// OpenJournal attaches a durable journal under dir (created if needed):
// subsequent flushes append this tracer's events to the log at
// JournalPath(dir, actor). Opening starts a segment at once, so an idle
// process still leaves an identifiable journal. Close before reopening.
func (t *Tracer) OpenJournal(dir string) error {
	hdr, err := json.Marshal(journalHeader{Format: JournalFormatID, Actor: t.actor, OpenNS: time.Now().UnixNano()})
	if err != nil {
		return err
	}
	hdr = append(hdr, '\n')
	log, err := journal.Open(JournalPath(dir, t.actor), 0, func() ([]byte, error) { return hdr, nil })
	if err != nil {
		return err
	}
	if err := log.Append(nil); err != nil {
		return errors.Join(err, log.Close())
	}
	t.mu.Lock()
	t.journal = log
	t.mu.Unlock()
	return nil
}

// Flush appends the events emitted since the last flush to the
// attached journal, if any.
func (t *Tracer) Flush() error { return t.flush(false) }

// Close flushes and detaches the journal, closing it. The tracer stays
// usable (Emit, Snapshot); only durability stops. Safe on a nil tracer,
// like Emit.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	return t.flush(true)
}

// flush takes pending under t.mu and encodes and writes it after t.mu is
// released: the log serializes its own writes, and neither an emitter nor
// a debug capture waits behind a disk. (Two flushes at once may land out
// of emit order; every event carries its seq and wall time, and Stitch
// sorts.) An event JSON cannot carry (a NaN) stays out of the journal.
func (t *Tracer) flush(detach bool) error {
	t.mu.Lock()
	log, events := t.journal, t.pending
	t.pending = nil
	if detach {
		t.journal = nil
	}
	t.mu.Unlock()
	if log == nil {
		return nil
	}
	var lines []byte
	var err error
	for i := range events {
		line, merr := json.Marshal(&events[i])
		if merr != nil {
			err = errors.Join(err, merr)
			continue
		}
		lines = append(append(lines, line...), '\n')
	}
	if len(lines) > 0 {
		err = errors.Join(err, log.Append(lines))
	}
	if detach {
		err = errors.Join(err, log.Close())
	}
	return err
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

// ReadJournal parses one tracer's journal, the directory JournalPath
// names: every complete event line of every segment, in order. Events
// missing an actor field inherit their segment header's actor.
func ReadJournal(dir string) ([]Event, error) {
	var events []Event
	actor := ""
	tail := journal.NewTail(dir)
	err := tail.Read(func(first bool, line []byte) error {
		if first {
			var hdr journalHeader
			if err := json.Unmarshal(line, &hdr); err != nil {
				return fmt.Errorf("bad header: %w", err)
			}
			if hdr.Format != JournalFormatID {
				return fmt.Errorf("format %q, want %q", hdr.Format, JournalFormatID)
			}
			actor = hdr.Actor
			return nil
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad event: %w", err)
		}
		if ev.Actor == "" {
			ev.Actor = actor
		}
		events = append(events, ev)
		return nil
	})
	if err == nil && tail.Len() == 0 {
		err = fmt.Errorf("%s holds no journal segments", dir)
	}
	if err != nil {
		return nil, fmt.Errorf("looptrace: %w", err)
	}
	return events, nil
}

// ReadJournalDir parses every loop-*/ journal under dir and returns the
// union of their events (unsorted; Stitch orders them).
func ReadJournalDir(dir string) ([]Event, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "loop-*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var all []Event
	for _, p := range paths {
		if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
			continue // not a journal: the directory is shared
		}
		events, err := ReadJournal(p)
		if err != nil {
			return nil, err
		}
		all = append(all, events...)
	}
	return all, nil
}
