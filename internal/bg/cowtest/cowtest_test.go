package cowtest

import (
	"fmt"
	"maps"
	"strings"
	"sync/atomic"
	"testing"
)

// recorder stands in for the *testing.T of a test under Held: it keeps
// what the audit reports.
type recorder struct {
	testing.TB
	errors []string
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

type snap struct {
	n     int
	byKey map[string]int
	hits  atomic.Int64 // updated in place by design: the audit must skip it
}

// lateWriter breaks rule 1: it keeps the snapshot it stored and fills a
// field in on the next call, after readers may have loaded it.
type lateWriter struct {
	cur  atomic.Pointer[snap]
	last *snap
}

func (w *lateWriter) publish(i int) {
	if w.last != nil {
		w.last.n = i
	}
	w.last = &snap{}
	w.cur.Store(w.last)
}

// loadWriter breaks rule 2: it updates the map of the snapshot it loaded
// and stores the same snapshot again.
type loadWriter struct{ cur atomic.Pointer[snap] }

func (w *loadWriter) publish(i int) {
	s := w.cur.Load()
	s.byKey[fmt.Sprint("k", i%4)] = i
	w.cur.Store(s)
}

// cloneWriter keeps the discipline: it clones what it loaded, changes the
// clone, publishes it, and bumps the atomic cell every snapshot shares.
type cloneWriter struct{ cur atomic.Pointer[snap] }

func (w *cloneWriter) publish(i int) {
	old := w.cur.Load()
	next := &snap{n: i, byKey: maps.Clone(old.byKey)}
	next.byKey[fmt.Sprint("k", i%4)] = i
	next.hits.Store(old.hits.Add(1))
	w.cur.Store(next)
}

// TestFrozenProvesItself is the audit's self-test: both seeded violations
// are reported with the value and the field named — under Held, because
// a reader beside a writer that breaks the discipline is a data race, and
// on a map one the runtime ends the process for — and clone-and-republish,
// atomic cell and all, passes under Frozen.
func TestFrozenProvesItself(t *testing.T) {
	late := &lateWriter{}
	late.publish(0)
	rec := &recorder{TB: t}
	Held(rec, "cowtest.lateWriter.cur", func() any { return late.cur.Load() }, late.publish)
	if len(rec.errors) != 1 || !strings.HasPrefix(rec.errors[0], "cowtest.lateWriter.cur: ") || !strings.Contains(rec.errors[0], `".n = 0" is now ".n = 1"`) {
		t.Errorf("a write after Store was reported as %q", rec.errors)
	}

	through := &loadWriter{}
	through.cur.Store(&snap{byKey: map[string]int{}})
	rec = &recorder{TB: t}
	Held(rec, "cowtest.loadWriter.cur", func() any { return through.cur.Load() }, through.publish)
	if len(rec.errors) != 1 || !strings.HasPrefix(rec.errors[0], "cowtest.loadWriter.cur: ") || !strings.Contains(rec.errors[0], `is now ".byKey[\"k0\"] = `) {
		t.Errorf("a map write through a Load result was reported as %q", rec.errors)
	}

	clone := &cloneWriter{}
	clone.cur.Store(&snap{byKey: map[string]int{}})
	Frozen(t, "cowtest.cloneWriter.cur", func() any { return clone.cur.Load() }, clone.publish)
}

// TestRenderSeesWhatTheAuditPromises pins the rendering: keys sorted,
// pointers by identity, cells skipped, cycles and foreign pointers not
// followed.
func TestRenderSeesWhatTheAuditPromises(t *testing.T) {
	type node struct {
		next *node
		b    *strings.Builder
	}
	loop := &node{b: &strings.Builder{}}
	loop.next = loop
	if got := Render(loop); strings.Count(got, "\n") != 3 {
		t.Errorf("a self-referential node with a foreign pointer rendered as %q", got)
	}
	s := &snap{n: 7, byKey: map[string]int{"b": 2, "a": 1}}
	s.hits.Store(99)
	got := Render(s)
	if !strings.Contains(got, ".n = 7\n.byKey[\"a\"] = 1\n.byKey[\"b\"] = 2\n") || strings.Contains(got, "hits") {
		t.Errorf("a snapshot rendered as %q", got)
	}
	if a, b := Render(&snap{}), Render(&snap{}); a == b {
		t.Errorf("two snapshots render alike, identity and all: %q", a)
	}
}
