package looptrace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"apollo/internal/journal"
)

// The instrumented packages call Emit unconditionally, so what an
// untraced process pays (a nil tracer) and what a traced one without a
// journal pays must not allocate, whether the window is filling or full.
func TestEmitAllocationFree(t *testing.T) {
	tr := New("test", Options{Capacity: 8})
	f := Fields{Version: 2, Parent: 1, Rows: 64, Peer: "r1"}
	allocs := testing.AllocsPerRun(500, func() {
		tr.Emit(KindClientSwap, "lulesh/policy", "L0123456789abcdef-00000001", f)
	})
	if allocs != 0 {
		t.Errorf("Emit allocates %.1f objects per call, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(100, func() {
		nilTr.Emit(KindClientSwap, "lulesh/policy", "", f)
	})
	if allocs != 0 {
		t.Errorf("nil-tracer Emit allocates %.1f objects per call, want 0", allocs)
	}
}

// Names of any length round-trip whole, through the window and through
// the journal, and wall timestamps are near now.
func TestEventBounds(t *testing.T) {
	dir := t.TempDir()
	tr := New("test", Options{})
	if err := tr.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 200)
	tr.Emit(KindDuel, long, long+"l", Fields{Peer: long + "p"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events := tr.Snapshot()
	journaled, err := ReadJournal(JournalPath(dir, "test"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || len(journaled) != 1 {
		t.Fatalf("window holds %d events, journal %d; want 1 each", len(events), len(journaled))
	}
	for _, ev := range []Event{events[0], journaled[0]} {
		if ev.Model != long || ev.Loop != long+"l" || ev.Peer != long+"p" || ev.Actor != "test" || ev.Kind != "duel" {
			t.Errorf("event did not round-trip: model=%d loop=%d peer=%d bytes, actor=%q kind=%q",
				len(ev.Model), len(ev.Loop), len(ev.Peer), ev.Actor, ev.Kind)
		}
	}
	now := time.Now().UnixNano()
	if d := events[0].WallNS - now; d > int64(time.Minute) || d < -int64(time.Minute) {
		t.Errorf("wall timestamp %d is %v away from now", events[0].WallNS, time.Duration(d))
	}
}

// Eight emitters race a flusher with more events than the window holds:
// the journal gets every event exactly once, seqs 1..N in order, and the
// window ends holding the newest Capacity events, oldest first, with
// wall stamps that never step back. Run with -race.
func TestConcurrentEmitDrain(t *testing.T) {
	const perG, goroutines, capacity = 500, 8, 64
	const total = perG * goroutines
	dir := t.TempDir()
	tr := New("test", Options{Capacity: capacity})
	if err := tr.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	flushErr := make(chan error, 1)
	go func() {
		var err error
		for {
			select {
			case <-stop:
				flushErr <- err
				return
			default:
				err = errors.Join(err, tr.Flush())
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(KindIngest, "m", "L1", Fields{Rows: int64(g), Version: int32(i)})
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-flushErr; err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if got := tr.Emitted(); got != total {
		t.Errorf("emitted %d, want %d", got, total)
	}
	journaled, err := ReadJournal(JournalPath(dir, "test"))
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled) != total {
		t.Fatalf("journal holds %d events, want %d", len(journaled), total)
	}
	perEmitter := make(map[int64]int32, goroutines)
	for i, ev := range journaled {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("journal line %d carries seq %d", i+1, ev.Seq)
		}
		if i > 0 && ev.WallNS < journaled[i-1].WallNS {
			t.Fatalf("seq %d stamped %d, before seq %d at %d", ev.Seq, ev.WallNS, ev.Seq-1, journaled[i-1].WallNS)
		}
		if next := perEmitter[ev.Rows]; ev.Version != next {
			t.Fatalf("emitter %d: event %d journaled where %d was due", ev.Rows, ev.Version, next)
		}
		perEmitter[ev.Rows]++
	}
	window := tr.Snapshot()
	if len(window) != capacity {
		t.Fatalf("window holds %d events, want %d", len(window), capacity)
	}
	for i, ev := range window {
		if want := journaled[total-capacity+i]; ev != want {
			t.Fatalf("window[%d] = %+v, want the journal's %+v", i, ev, want)
		}
	}
}

// Journal round trip: events written by a flushing tracer (including a
// reopen, which starts the journal's next segment) read back in order
// with the actor attached.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := New("serve:r1", Options{})
	if err := tr.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	tr.Emit(KindPublish, "m", "L1", Fields{Version: 2, Parent: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.OpenJournal(dir); err != nil { // restart: the next segment
		t.Fatal(err)
	}
	tr.Emit(KindSyncPull, "m", "L1", Fields{Version: 2, Peer: "r2", DurNS: 1e6})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	path := JournalPath(dir, "serve:r1")
	if filepath.Base(path) != "loop-serve-r1" {
		t.Errorf("journal path %q", path)
	}
	if segs, err := journal.Segments(path); err != nil || len(segs) != 2 {
		t.Errorf("journal segments = %v, %v; want one per open", segs, err)
	}
	events, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events, want 2", len(events))
	}
	if events[0].Kind != "publish" || events[0].Actor != "serve:r1" || events[0].Version != 2 {
		t.Errorf("event 0: %+v", events[0])
	}
	if events[1].Kind != "sync-pull" || events[1].Peer != "r2" || events[1].DurNS != 1e6 {
		t.Errorf("event 1: %+v", events[1])
	}

	// A file beside the journals (the directory is shared) is not one.
	if err := os.WriteFile(filepath.Join(dir, "loop-notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	all, err := ReadJournalDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("dir read %d events, want 2", len(all))
	}
	if _, err := ReadJournal(filepath.Join(dir, "loop-nobody")); err == nil {
		t.Error("a directory holding no journal read as an empty one")
	}
}

// A crash can tear the journal's last line at any byte. Whatever the
// offset, a restarted tracer must be able to open the journal and keep
// journaling — on the next segment, never in the torn one — and a reader
// must get the intact prefix plus the new events: never an error for the
// whole journal, never a duplicate, never the torn bytes.
func TestJournalTornTailAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	tr := New("traind", Options{})
	if err := tr.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	for v := int32(1); v <= 3; v++ {
		tr.Emit(KindPublish, "lulesh/policy", "L1", Fields{Version: v, Parent: v - 1})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	path := JournalPath(dir, "traind")
	seg := filepath.Join(path, "seg-00000001.jsonl")
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(whole[:len(whole)-1], '\n') + 1

	for cut := lastLine; cut < len(whole); cut++ {
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Event 3 is torn at every cut — the one that took only its
		// newline leaves it whole and unterminated, waiting for ever.
		wantVersions := []int32{1, 2, 9}
		restarted := New("traind", Options{})
		if err := restarted.OpenJournal(dir); err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		restarted.Emit(KindPublish, "lulesh/policy", "L2", Fields{Version: 9})
		if err := restarted.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
		if torn, err := os.ReadFile(seg); err != nil || !bytes.Equal(torn, whole[:cut]) {
			t.Fatalf("cut=%d: the restart wrote into the torn segment (%v)", cut, err)
		}
		events, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: torn tail poisoned the journal: %v", cut, err)
		}
		var versions []int32
		for _, ev := range events {
			versions = append(versions, ev.Version)
			if ev.Actor != "traind" || ev.Kind != "publish" {
				t.Errorf("cut=%d: mangled event %+v", cut, ev)
			}
		}
		if fmt.Sprint(versions) != fmt.Sprint(wantVersions) {
			t.Errorf("cut=%d: read versions %v, want %v", cut, versions, wantVersions)
		}
	}

	// A reader racing the writer sees the unterminated tail and ignores
	// it: events 1 and 2, and the last restart's one in the next segment.
	if err := os.WriteFile(seg, whole[:len(whole)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if events, err := ReadJournal(path); err != nil || len(events) != 3 {
		t.Errorf("mid-append read: %d events, err %v; want 3, nil", len(events), err)
	}
	// A foreign file is still refused, tear or no tear.
	if err := os.WriteFile(seg, []byte(`{"format":"apollo-telemetry-v1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), "apollo-telemetry-v1") {
		t.Errorf("wrong-format journal accepted: %v", err)
	}
	// So is a complete line that is not an event.
	if err := os.WriteFile(seg, append(bytes.Clone(whole), "{not json\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), "bad event") {
		t.Errorf("a garbage line read as an event: %v", err)
	}
}

// FuzzReadJournal: whatever bytes a loop segment holds, reading the
// journal yields events or an error, never a panic.
func FuzzReadJournal(f *testing.F) {
	f.Add([]byte(`{"format":"apollo-loop-v1","actor":"traind","open_unix_ns":1}` + "\n" +
		`{"kind":"publish","seq":1,"wall_ns":2,"model":"m","version":3}` + "\n" + `{"kind":"pub`))
	f.Add([]byte(`{"format":"apollo-frame-v1","columns":["x"]}` + "\n[1]\n"))
	f.Add([]byte("\n\n{}\nnull\n[]\n1e999\n"))
	f.Add([]byte(`{"format":"apollo-loop-v1"}` + "\n" + `{"kind":7,"seq":-1}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		events, err := ReadJournal(dir)
		if err != nil && events != nil {
			t.Fatalf("ReadJournal returned %d events beside %v", len(events), err)
		}
		if n := bytes.Count(data, []byte("\n")); len(events) > n {
			t.Fatalf("%d events from %d lines", len(events), n)
		}
	})
}

// Stitch groups by loop ID, orders cross-actor events by wall time,
// computes stage spans, and marks the loop complete with a nonzero
// reaction time.
func TestStitchTimeline(t *testing.T) {
	base := int64(1_000_000_000_000)
	ms := func(n int64) int64 { return base + n*int64(time.Millisecond) }
	events := []Event{
		{Kind: "client-swap", Actor: "tune", Model: "m", Loop: "L1", Version: 2, WallNS: ms(50)},
		{Kind: "drift-fired", Actor: "traind", Model: "m", Loop: "L1", A: 0.6, Rows: 40, WallNS: ms(0)},
		{Kind: "retrain-start", Actor: "traind", Model: "m", Loop: "L1", Parent: 1, Rows: 36, WallNS: ms(1)},
		{Kind: "retrain-end", Actor: "traind", Model: "m", Loop: "L1", DurNS: 9e6, WallNS: ms(10)},
		{Kind: "duel", Actor: "traind", Model: "m", Loop: "L1", A: 900, B: 400, Rows: 4, Peer: "publish", WallNS: ms(11)},
		{Kind: "publish", Actor: "serve:r1", Model: "m", Loop: "L1", Version: 2, Parent: 1, WallNS: ms(15)},
		{Kind: "sync-pull", Actor: "serve:r2", Model: "m", Loop: "L1", Version: 2, Peer: "r1", WallNS: ms(30)},
		{Kind: "sync-pull", Actor: "serve:r3", Model: "m", Loop: "L1", Version: 2, Peer: "r1", WallNS: ms(40)},
		{Kind: "ring-evict", Actor: "serve:r1", Peer: "r9", WallNS: ms(5)}, // no loop: unscoped
	}
	r := Stitch(events)
	if r.Unscoped != 1 || len(r.Loops) != 1 || r.CompleteLoops != 1 {
		t.Fatalf("unscoped=%d loops=%d complete=%d", r.Unscoped, len(r.Loops), r.CompleteLoops)
	}
	tl := r.Loops[0]
	if !tl.Drift || !tl.Complete || tl.Version != 2 || tl.Parent != 1 || tl.Model != "m" {
		t.Errorf("timeline: %+v", tl)
	}
	if want := float64(50 * time.Millisecond); tl.ReactionNS != want {
		t.Errorf("reaction %.0f, want %.0f", tl.ReactionNS, want)
	}
	if tl.Events[0].Kind != "drift-fired" || tl.Events[len(tl.Events)-1].Kind != "client-swap" {
		t.Errorf("events not time-ordered: first=%s last=%s", tl.Events[0].Kind, tl.Events[len(tl.Events)-1].Kind)
	}
	for stage, want := range map[string]float64{
		"detect":     float64(1 * time.Millisecond),
		"retrain":    float64(9 * time.Millisecond),
		"publish":    float64(5 * time.Millisecond),
		"distribute": float64(25 * time.Millisecond),
		"swap":       float64(35 * time.Millisecond),
		"total":      float64(50 * time.Millisecond),
	} {
		if got := tl.Stages[stage]; got != want {
			t.Errorf("stage %s: %.0f, want %.0f", stage, got, want)
		}
	}
	if r.Reaction.Count != 1 || r.Reaction.P50NS != tl.ReactionNS || r.Reaction.P99NS != tl.ReactionNS {
		t.Errorf("reaction stats: %+v", r.Reaction)
	}

	var sb strings.Builder
	if err := r.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"drift-fired", "sync-pull", "reaction", "p99"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("timeline text missing %q:\n%s", want, sb.String())
		}
	}
}

// An open loop (no convergence signal) is reported but not counted
// complete, and contributes no reaction sample.
func TestStitchIncompleteLoop(t *testing.T) {
	events := []Event{
		{Kind: "drift-fired", Actor: "traind", Model: "m", Loop: "L2", WallNS: 10},
		{Kind: "retrain-start", Actor: "traind", Model: "m", Loop: "L2", WallNS: 20},
	}
	r := Stitch(events)
	if len(r.Loops) != 1 || r.CompleteLoops != 0 || r.Reaction.Count != 0 {
		t.Fatalf("loops=%d complete=%d reactions=%d", len(r.Loops), r.CompleteLoops, r.Reaction.Count)
	}
	if r.Loops[0].Complete || r.Loops[0].ReactionNS != 0 {
		t.Errorf("incomplete loop misreported: %+v", r.Loops[0])
	}
}

// Steady-state emit cost with no journal attached: the window is full,
// so every emit overwrites its oldest event.
func BenchmarkEmit(b *testing.B) {
	tr := New("bench", Options{})
	f := Fields{Version: 2, Parent: 1, Rows: 64, Peer: "r1"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(KindClientSwap, "lulesh/policy", "L0123456789abcdef-00000001", f)
	}
}

// The nil-tracer no-op: what untraced processes pay at every call site.
func BenchmarkEmitNilTracer(b *testing.B) {
	var tr *Tracer
	f := Fields{Version: 2, Parent: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(KindClientSwap, "lulesh/policy", "", f)
	}
}

// Contended emit: every logical CPU hammering one tracer, the worst case
// a busy replica's ingest + sync + swap paths can produce.
func BenchmarkEmitParallel(b *testing.B) {
	tr := New("bench", Options{})
	f := Fields{Version: 2, Parent: 1, Rows: 64}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Emit(KindIngest, "lulesh/policy", "L0123456789abcdef-00000001", f)
		}
	})
}

// Stitch over a fleet-scale journal: 256 loops x 8 events (drift,
// retrain pair, duel, publish, two pulls, swap) across 5 actors.
func BenchmarkStitch(b *testing.B) {
	var events []Event
	for l := 0; l < 256; l++ {
		loop := NewLoopID("m", l, int64(l+1))
		base := int64(l) * 1000
		for i, kind := range []Kind{KindDriftFired, KindRetrainStart, KindRetrainEnd,
			KindDuel, KindPublish, KindSyncPull, KindSyncPull, KindClientSwap} {
			actor := [...]string{"traind", "traind", "traind", "traind",
				"serve:r1", "serve:r2", "serve:r3", "tune"}[i]
			events = append(events, Event{
				Kind: kind.String(), Actor: actor, Model: "m", Loop: loop,
				WallNS: base + int64(i)*100, Version: int32(l + 2), Parent: int32(l + 1),
			})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Stitch(events)
		if r.CompleteLoops != 256 {
			b.Fatalf("complete loops = %d", r.CompleteLoops)
		}
	}
}
