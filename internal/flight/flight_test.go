package flight

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"apollo/internal/ctree"
	"apollo/internal/dtree"
)

// emitOne reserves, fills, and commits one record for site with the
// given observed runtime (and half of it as the predicted one),
// mirroring what the tuner's End hook does.
func emitOne(r *Recorder, site uint64, class int, observed float64) {
	rec, tok := r.Reserve(site)
	if rec != nil {
		rec.Policy = int32(class)
		rec.Predicted = int32(class)
		rec.ObservedNS = observed
		rec.PredictedNS = observed / 2
		rec.NumFeatures = 2
		rec.Features[0] = observed
		rec.Features[1] = float64(class)
		rec.Offsets[0] = ^int32(class) // a leaf-only tree's whole trail
		rec.OffsetsSplit, rec.OffsetsLen = 1, 1
	}
	r.Commit(tok)
}

func TestEmitSnapshotRoundTrip(t *testing.T) {
	r := New(Options{Capacity: 8, FeatureNames: []string{"obs", "class"}})
	emitOne(r, 7, 2, 100)
	emitOne(r, 7, 2, 200)
	recs := r.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("bad seqs: %d, %d", recs[0].Seq, recs[1].Seq)
	}
	if recs[0].Site != 7 || recs[0].Policy != 2 || recs[0].ObservedNS != 100 {
		t.Fatalf("bad record: %+v", recs[0])
	}
	if recs[0].PredictedNS != 50 || recs[1].PredictedNS != 100 {
		t.Fatalf("predictions = %g, %g, want 50, 100 as written", recs[0].PredictedNS, recs[1].PredictedNS)
	}
	if got := r.Emitted(); got != 2 {
		t.Fatalf("Emitted = %d, want 2", got)
	}
	// Snapshot is non-destructive: the retained window still has both.
	if again := r.Snapshot(); len(again) != 2 {
		t.Fatalf("second snapshot lost records: got %d", len(again))
	}
}

func TestWraparoundKeepsNewest(t *testing.T) {
	const capacity = 8
	r := New(Options{Capacity: capacity})
	// 3x capacity emissions without an intervening drain: the ring laps
	// itself twice; only the newest `capacity` survive, and the retained
	// window then bounds history at `capacity`.
	for i := 0; i < 3*capacity; i++ {
		emitOne(r, 1, 0, float64(i))
	}
	recs := r.Snapshot()
	if len(recs) != capacity {
		t.Fatalf("got %d records, want %d", len(recs), capacity)
	}
	for i, rec := range recs {
		want := uint64(2*capacity + i + 1)
		if rec.Seq != want {
			t.Fatalf("record %d: seq %d, want %d (newest must win wraparound)", i, rec.Seq, want)
		}
	}
	// Keep emitting after a drain: retained stays bounded and ordered.
	for i := 0; i < 2*capacity; i++ {
		emitOne(r, 1, 0, float64(i))
	}
	recs = r.Snapshot()
	if len(recs) != capacity {
		t.Fatalf("after refill: got %d records, want %d", len(recs), capacity)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

// TestConcurrentEmit hammers the recorder from a sweep of goroutine
// counts while a reader snapshots continuously. Run under -race this is
// the soundness proof for the buffer-flip protocol: any torn read or
// unsynchronized payload access fails the build.
func TestConcurrentEmit(t *testing.T) {
	for _, writers := range []int{1, 2, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)} {
		writers := writers
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			r := New(Options{Capacity: 64})
			const perWriter = 500
			var readerWG, writerWG sync.WaitGroup
			stop := make(chan struct{})
			readerWG.Add(1)
			go func() { // concurrent reader
				defer readerWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, rec := range r.Snapshot() {
						if rec.Seq == 0 || rec.ObservedNS != float64(rec.Seq) {
							panic(fmt.Sprintf("torn record: %+v", rec))
						}
					}
				}
			}()
			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(w int) {
					defer writerWG.Done()
					for i := 0; i < perWriter; i++ {
						rec, tok := r.Reserve(uint64(w))
						if rec != nil {
							// Stamp a payload derived from the unique Seq so the
							// reader can detect tearing.
							rec.ObservedNS = float64(rec.Seq)
							rec.NumFeatures = MaxFeatures
							for f := 0; f < MaxFeatures; f++ {
								rec.Features[f] = float64(rec.Seq)
							}
						}
						r.Commit(tok)
					}
				}(w)
			}
			writerWG.Wait()
			close(stop)
			readerWG.Wait()
			if got := r.Emitted() + r.Dropped(); got != uint64(writers*perWriter) {
				t.Fatalf("emitted+dropped = %d, want %d", got, writers*perWriter)
			}
			// Everything still visible must be coherent.
			for _, rec := range r.Snapshot() {
				if rec.ObservedNS != float64(rec.Seq) {
					t.Fatalf("torn record after quiesce: %+v", rec)
				}
				for f := 0; f < int(rec.NumFeatures); f++ {
					if rec.Features[f] != float64(rec.Seq) {
						t.Fatalf("torn feature %d: %g != %d", f, rec.Features[f], rec.Seq)
					}
				}
			}
		})
	}
}

func TestEmitAllocFree(t *testing.T) {
	r := New(Options{Capacity: 32})
	avg := testing.AllocsPerRun(1000, func() {
		rec, tok := r.Reserve(42)
		if rec != nil {
			rec.Policy = 1
			rec.ObservedNS = 5
			rec.PredictedNS = 4
		}
		r.Commit(tok)
	})
	if avg != 0 {
		t.Fatalf("emit allocates %v per op, want 0", avg)
	}
}

// TestRingHoldsCapacityAtAnyP: the ring's size is Options.Capacity (512
// by default) whatever GOMAXPROCS is, and a snapshot after the ring has
// lapped itself holds exactly that many records.
func TestRingHoldsCapacityAtAnyP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{8, 1} {
		runtime.GOMAXPROCS(procs)
		r := New(Options{})
		for i := 0; i < 3*512; i++ {
			emitOne(r, 1, 0, float64(i))
		}
		if got := len(r.Snapshot()); got != 512 {
			t.Errorf("GOMAXPROCS(%d): snapshot holds %d records, want 512", procs, got)
		}
	}
}

// TestRecordCarriesSiteName: a record names its site inline, truncated
// to MaxSiteName bytes, and a reservation clears the name a slot's
// earlier occupant left.
func TestRecordCarriesSiteName(t *testing.T) {
	r := New(Options{Capacity: 1})
	long := strings.Repeat("k", MaxSiteName+10)
	for _, name := range []string{"daxpy", long, ""} {
		rec, tok := r.Reserve(1)
		if name != "" {
			rec.SetSiteName(name)
		}
		r.Commit(tok)
		got := r.Snapshot()
		if want := name[:min(len(name), MaxSiteName)]; got[len(got)-1].SiteName() != want {
			t.Fatalf("site named %q: the record reads %q, want %q", name, got[len(got)-1].SiteName(), want)
		}
	}
}

// twoSplitTree compiles "feature 0 <= t0 → left leaf 0; else feature 1
// <= t1 → leaf 0, else leaf 1".
func twoSplitTree(t *testing.T, t0, t1 float64) *ctree.Tree {
	t.Helper()
	ct, err := ctree.Compile(&dtree.Tree{
		Root: &dtree.Node{
			Feature: 0, Threshold: t0,
			Left: &dtree.Node{Feature: -1, Label: 0},
			Right: &dtree.Node{
				Feature: 1, Threshold: t1,
				Left:  &dtree.Node{Feature: -1, Label: 0},
				Right: &dtree.Node{Feature: -1, Label: 1},
			},
		},
		NumFeatures: 2, NumClasses: 2,
	})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return ct
}

// TestCaptureExplains is the dual-model round trip: a site running a
// policy and a chunk model packs two offset trails into the record, and
// the capture renders them as one explained path, policy steps first.
func TestCaptureExplains(t *testing.T) {
	names := []string{"num_indices", "trip_count"}
	policy, chunk := twoSplitTree(t, 96, 256), twoSplitTree(t, 8, 1e6)
	r := New(Options{Capacity: 8, FeatureNames: names})
	// The chunk model sees the source features swapped.
	dec := r.SetDecoder(TrailDecoder{Tree: policy, Src: []int32{0, 1}, ChunkTree: chunk, ChunkSrc: []int32{1, 0}})
	rec, tok := r.Reserve(7)
	if rec == nil {
		t.Fatal("reservation dropped on an empty ring")
	}
	rec.SetSiteName("daxpy")
	rec.Policy = 1
	rec.Predicted = 1
	rec.Iterations = 4096
	rec.NumFeatures = 2
	rec.Features[0] = 16
	rec.Features[1] = 4096
	_, n0 := policy.PredictOffsets([]float64{16, 4096}, rec.Offsets[:MaxOffsets])
	_, n1 := chunk.PredictOffsets([]float64{4096, 16}, rec.Offsets[n0:n0+MaxOffsets])
	rec.OffsetsSplit, rec.OffsetsLen = int32(n0), int32(n0+n1)
	rec.DecoderGen = dec.Gen()
	r.Commit(tok)

	c := r.Capture()
	if c.Format != CaptureFormatID {
		t.Fatalf("format %q", c.Format)
	}
	if len(c.Records) != 1 {
		t.Fatalf("records: %d", len(c.Records))
	}
	cr := c.Records[0]
	if cr.Site != "daxpy" || cr.SiteID != "0x7" || cr.Policy != 1 || cr.Iterations != 4096 {
		t.Fatalf("record: %+v", cr)
	}
	if cr.Features["num_indices"] != 16 || cr.Features["trip_count"] != 4096 {
		t.Fatalf("features: %+v", cr.Features)
	}
	wantPath := []string{
		"num_indices (=16) <= 96 → left",
		"trip_count (=4096) > 8 → right",
		"num_indices (=16) <= 1e+06 → left",
	}
	if fmt.Sprint(cr.Path) != fmt.Sprint(wantPath) {
		t.Fatalf("path: %q, want %q", cr.Path, wantPath)
	}
}

// TestCaptureDecodesOffsets is the single-model round trip: the record
// carries one trail, which the capture expands into the explained path
// while the decoder it was written under is current — and, once another
// decoder replaces it, no longer renders at all, rather than against
// thresholds the deciding tree never had.
func TestCaptureDecodesOffsets(t *testing.T) {
	names := []string{"num_indices", "trip_count"}
	ct := twoSplitTree(t, 96, 256)

	r := New(Options{Capacity: 8, FeatureNames: names})
	dec := r.SetDecoder(TrailDecoder{Tree: ct, Src: []int32{0, 1}})
	if d := r.Decoder(); d != dec || d.Tree != ct || d.Gen() == 0 {
		t.Fatal("Decoder does not return the installed decoder")
	}

	rec, tok := r.Reserve(7)
	if rec == nil {
		t.Fatal("reservation dropped on an empty ring")
	}
	rec.NumFeatures = 2
	rec.Features[0] = 4096 // num_indices > 96 → right
	rec.Features[1] = 4096 // trip_count > 256 → right
	class, n := ct.PredictOffsets([]float64{4096, 4096}, rec.Offsets[:MaxOffsets])
	rec.OffsetsSplit, rec.OffsetsLen = int32(n), int32(n)
	rec.Predicted = int32(class)
	rec.Policy = int32(class)
	rec.DecoderGen = dec.Gen()
	r.Commit(tok)

	wantPath := []string{
		"num_indices (=4096) > 96 → right",
		"trip_count (=4096) > 256 → right",
	}
	if cr := r.Capture().Records[0]; fmt.Sprint(cr.Path) != fmt.Sprint(wantPath) {
		t.Fatalf("decoded path %q, want %q", cr.Path, wantPath)
	}

	// The same trees installed again are a new generation: the record's
	// decoder is gone, and with it its path, but not its outcome.
	if next := r.SetDecoder(TrailDecoder{Tree: twoSplitTree(t, 8, 256), Src: []int32{0, 1}}); next.Gen() == dec.Gen() {
		t.Fatalf("a second install reused generation %d", dec.Gen())
	}
	if cr := r.Capture().Records[0]; cr.Path != nil || cr.Predicted != class || cr.Features["num_indices"] != 4096 {
		t.Fatalf("record written under a replaced decoder captures as %+v, want its outcome and no path", cr)
	}
}

// TestRecordTrailsClampAndSize pins the offsets-only record: Trails never
// indexes outside Offsets whatever a torn record claims, and the record
// is the 744 bytes record.go and Options.Capacity's memory formula cite —
// 680 once the 576-byte TrailStep array became a second 100-byte offset
// trail (it was 1160), plus the inline site name.
func TestRecordTrailsClampAndSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 680+MaxSiteName {
		t.Errorf("Record is %d bytes, want %d", got, 680+MaxSiteName)
	}
	for _, tc := range []struct{ split, n, wantFirst, wantSecond int32 }{
		{0, 0, 0, 0}, {3, 3, 3, 0}, {0, 4, 0, 4}, {2, 5, 2, 3},
		{9, 4, 4, 0}, {-1, 6, 0, 6}, {3, -2, 0, 0}, {60, 1000, 2 * MaxOffsets, 0},
	} {
		rec := Record{OffsetsSplit: tc.split, OffsetsLen: tc.n}
		first, second := rec.Trails()
		if int32(len(first)) != tc.wantFirst || int32(len(second)) != tc.wantSecond {
			t.Errorf("split=%d len=%d: trails %d/%d, want %d/%d", tc.split, tc.n, len(first), len(second), tc.wantFirst, tc.wantSecond)
		}
	}
}

func TestExplainTrailFallbacks(t *testing.T) {
	trail := []dtree.TrailStep{
		{Feature: -1, Right: false, Threshold: 1, Value: 0},
		{Feature: 5, Right: true, Threshold: 2, Value: 3},
	}
	lines := explainTrail(trail, []string{"only"})
	if lines[0] != "(absent feature) (=0) <= 1 → left" {
		t.Fatalf("absent-feature line: %q", lines[0])
	}
	if lines[1] != "x[5] (=3) > 2 → right" {
		t.Fatalf("unnamed-feature line: %q", lines[1])
	}
}

// BenchmarkEmit measures the full hot-path emission: reserve, stamp a
// realistic payload (41 features, depth-8 trail), commit.
// The b.ReportAllocs figure is the EXPERIMENTS.md 0-allocs claim.
func BenchmarkEmit(b *testing.B) {
	r := New(Options{})
	trail := [9]int32{0, 1, 2, 3, 4, 5, 6, 7, -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, tok := r.Reserve(1)
		if rec != nil {
			rec.Iterations = int64(i)
			rec.Policy = 1
			rec.Chunk = 64
			rec.Predicted = 1
			rec.NumFeatures = 41
			for f := 0; f < 41; f++ {
				rec.Features[f] = float64(f)
			}
			rec.OffsetsLen = int32(copy(rec.Offsets[:], trail[:]))
			rec.OffsetsSplit = rec.OffsetsLen
			rec.ObservedNS = 1000
			rec.PredictedNS = 900
			rec.FeatureNS = 50
			rec.ModelNS = 20
		}
		r.Commit(tok)
	}
}

// BenchmarkEmitParallel is the contended case: every P emitting into
// the one ring.
func BenchmarkEmitParallel(b *testing.B) {
	r := New(Options{})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec, tok := r.Reserve(1)
			if rec != nil {
				rec.Policy = 1
				rec.ObservedNS = 1000
				rec.PredictedNS = 900
			}
			r.Commit(tok)
		}
	})
}

func BenchmarkNow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Now()
	}
}
