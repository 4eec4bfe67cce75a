package registry

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"apollo/internal/bg/bgtest"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// testModel trains a small policy model. With parallelWins, the parallel
// variant is fastest at every size (so the tree predicts omp everywhere);
// otherwise the usual crossover (small launches sequential) emerges.
func testModel(t testing.TB, parallelWins bool) *core.Model {
	t.Helper()
	schema := features.TableI()
	frame := dataset.NewFrame(core.RecordColumns(schema)...)
	ni := schema.Index(features.NumIndices)
	for _, n := range []int{32, 256, 2048, 16384, 131072} {
		for _, pol := range []raja.Policy{raja.SeqExec, raja.OmpParallelForExec} {
			row := make([]float64, schema.Len()+3)
			row[ni] = float64(n)
			row[schema.Len()] = float64(pol)
			seqNS := float64(n) * 10
			ompNS := 8000 + float64(n)*10/8
			if parallelWins {
				seqNS, ompNS = float64(n)*100, float64(n)
			}
			if pol == raja.SeqExec {
				row[schema.Len()+2] = seqNS
			} else {
				row[schema.Len()+2] = ompNS
			}
			frame.AddRow(row)
		}
	}
	set, err := core.Label(frame, schema, core.ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(set, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublishAssignsMonotonicVersions(t *testing.T) {
	r := New()
	m := testModel(t, false)
	e1, err := r.Publish("lulesh/execution_policy", m)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Publish("lulesh/execution_policy", m)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || e2.Version != 2 {
		t.Errorf("versions = %d, %d; want 1, 2", e1.Version, e2.Version)
	}
	got, ok := r.Get("lulesh/execution_policy")
	if !ok || got.Version != 2 {
		t.Errorf("Get returned version %d, want 2", got.Version)
	}
	if got.SchemaHash != m.SchemaHash() {
		t.Error("schema hash not stamped")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "lulesh/execution_policy" {
		t.Errorf("Names = %v", names)
	}
}

func TestValidateNameRejectsTraversal(t *testing.T) {
	for _, bad := range []string{"", "..", "a/../b", "/abs", "trail/", "a//b", "sp ace", "semi;colon", "a/./b"} {
		if err := ValidateName(bad); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"policy", "lulesh/execution_policy", "app/kernel-group/chunk_size", "v1.2_x-Y"} {
		if err := ValidateName(good); err != nil {
			t.Errorf("name %q rejected: %v", good, err)
		}
	}
}

func TestDiskPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, false)
	if _, err := r1.Publish("ares/execution_policy", m); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Publish("ares/execution_policy", m); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ares", "execution_policy.v2.json")); err != nil {
		t.Fatalf("version file missing: %v", err)
	}

	// A fresh registry over the same directory resumes at the highest
	// persisted version and keeps counting monotonically.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := r2.Get("ares/execution_policy")
	if !ok || e.Version != 2 {
		t.Fatalf("reloaded version = %d, want 2", e.Version)
	}
	if e.Model.Predict(make([]float64, e.Model.Schema.Len())) != e.Model.Predict(make([]float64, m.Schema.Len())) {
		t.Error("reloaded model does not evaluate")
	}
	e3, err := r2.Publish("ares/execution_policy", m)
	if err != nil {
		t.Fatal(err)
	}
	if e3.Version != 3 {
		t.Errorf("post-reload publish version = %d, want 3", e3.Version)
	}
}

func TestScanHotReloadsDroppedFile(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// An operator drops a bare model file into the registry directory.
	m := testModel(t, false)
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dropped.v7.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := r.scan()
	if err != nil || n != 1 {
		t.Fatalf("scan loaded %d (%v), want 1", n, err)
	}
	e, ok := r.Get("dropped")
	if !ok || e.Version != 7 {
		t.Fatalf("dropped model version = %d, want 7 from filename", e.Version)
	}

	// Editing the same file in place republished at a higher version.
	m2 := testModel(t, true)
	data2, _ := m2.MarshalJSON()
	if err := os.WriteFile(path, data2, 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	if n, err := r.scan(); err != nil || n != 1 {
		t.Fatalf("rescan loaded %d (%v), want 1", n, err)
	}
	e2, _ := r.Get("dropped")
	if e2.Version <= e.Version {
		t.Errorf("in-place edit version %d did not advance past %d", e2.Version, e.Version)
	}

	// Garbage files are ignored without wedging the registry.
	if err := os.WriteFile(filepath.Join(dir, "junk.v1.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.scan(); err != nil {
		t.Fatalf("scan errored on junk: %v", err)
	}
	if _, ok := r.Get("junk"); ok {
		t.Error("junk file registered")
	}
}

func TestWatchPublishesOnTick(t *testing.T) {
	bgtest.NoLeaks(t)
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := make(chan int, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go r.Watch(ctx, 5*time.Millisecond, func(n int) {
		select {
		case reloaded <- n:
		default:
		}
	})
	data, _ := testModel(t, false).MarshalJSON()
	if err := os.WriteFile(filepath.Join(dir, "hot.v1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case <-reloaded:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never reloaded the dropped file")
	}
	if _, ok := r.Get("hot"); !ok {
		t.Error("watched model not registered")
	}
}

func TestConcurrentPublishAndGet(t *testing.T) {
	r := New()
	m := testModel(t, false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			names := []string{"a", "b", "c/d"}
			for i := 0; i < 25; i++ {
				if _, err := r.Publish(names[(g+i)%len(names)], m); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if e, ok := r.Get("a"); ok && (e.Model == nil || e.Version < 1) {
					t.Error("torn read")
					return
				}
				r.Names()
			}
		}()
	}
	wg.Wait()
	e, ok := r.Get("a")
	if !ok || e.Version < 1 {
		t.Fatal("publishes lost")
	}
}

func TestPublishRejectsIncompleteModel(t *testing.T) {
	r := New()
	if _, err := r.Publish("x", &core.Model{}); err == nil {
		t.Error("incomplete model accepted")
	}
	if _, err := r.PublishRaw("x", []byte("{}")); err == nil {
		t.Error("empty JSON accepted")
	}
}

// A corrupt file already there when the registry opens is reported once,
// through the logger installed after Open: Open has no one to tell, so it
// must not remember the file as seen.
func TestCorruptFileAtOpenLogsOnceAfterSetLogf(t *testing.T) {
	dir := t.TempDir()
	data, _ := testModel(t, false).MarshalJSON()
	if err := os.WriteFile(filepath.Join(dir, "m.v1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m.v2.json"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	r.SetLogf(func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	for pass := 0; pass < 2; pass++ {
		if _, err := r.scan(); err != nil {
			t.Fatal(err)
		}
	}
	named := 0
	for _, l := range logs {
		if strings.Contains(l, "m.v2.json") {
			named++
		}
	}
	if named != 1 {
		t.Errorf("logs = %q, want exactly one line naming m.v2.json", logs)
	}
	if e, ok := r.Get("m"); !ok || e.Version != 1 {
		t.Errorf("serving %+v, want v1", e)
	}
}

func TestScanSkipsCorruptModelFileAndLogsOnce(t *testing.T) {
	dir := t.TempDir()
	data, _ := testModel(t, false).MarshalJSON()
	// A truncated model file right next to a valid one.
	if err := os.WriteFile(filepath.Join(dir, "bad.v1.json"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "good.v1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := New()
	r.dir = dir
	var logs []string
	r.SetLogf(func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	n, err := r.scan()
	if err != nil {
		t.Fatalf("scan with corrupt neighbor failed: %v", err)
	}
	if n != 1 {
		t.Errorf("loaded %d models, want 1", n)
	}
	if _, ok := r.Get("good"); !ok {
		t.Error("valid model not loaded")
	}
	if _, ok := r.Get("bad"); ok {
		t.Error("corrupt model loaded")
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "bad.v1.json") {
		t.Errorf("logs = %q, want one line naming bad.v1.json", logs)
	}

	// The corrupt file is remembered: further polls stay silent until it
	// changes on disk.
	if _, err := r.scan(); err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 {
		t.Errorf("repeat scan logged again: %q", logs)
	}
}
