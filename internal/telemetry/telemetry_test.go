package telemetry

import (
	"sync"
	"testing"
	"time"

	"apollo/internal/caliper"
	"apollo/internal/core"
	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
)

func testSchema() *features.Schema {
	return features.NewSchema(features.NumIndices, features.Timestep)
}

func record(r *Recorder, n int, elapsed float64) {
	k := raja.NewKernel("telemetry_test", nil)
	iset := raja.NewRange(0, n)
	r.Record(k, iset, raja.Params{Policy: raja.OmpParallelForExec, Chunk: 64}, elapsed)
}

func TestRecorderCapturesSampleRows(t *testing.T) {
	schema := testSchema()
	ann := caliper.New()
	ann.Set(features.Timestep, 7)
	r := NewRecorder(schema, ann, Options{})

	record(r, 128, 1234)
	if r.Recorded() != 1 {
		t.Fatalf("recorded=%d, want 1", r.Recorded())
	}
	frame := r.Drain(0)
	if frame == nil || frame.Len() != 1 {
		t.Fatalf("drained frame = %v", frame)
	}
	if got := frame.At(0, features.NumIndices); got != 128 {
		t.Errorf("num_indices = %v, want 128", got)
	}
	if got := frame.At(0, features.Timestep); got != 7 {
		t.Errorf("timestep = %v, want 7", got)
	}
	if got := frame.At(0, core.ColPolicy); got != float64(raja.OmpParallelForExec) {
		t.Errorf("policy = %v", got)
	}
	if got := frame.At(0, core.ColChunk); got != 64 {
		t.Errorf("chunk = %v", got)
	}
	if got := frame.At(0, core.ColTimeNS); got != 1234 {
		t.Errorf("time_ns = %v", got)
	}
	if r.Drain(0) != nil {
		t.Error("second drain returned rows from an empty ring")
	}
}

func TestRecorderSamplesOneInEvery(t *testing.T) {
	r := NewRecorder(testSchema(), nil, Options{SampleEvery: 8})
	for i := 0; i < 64; i++ {
		record(r, 10, 1)
	}
	if r.Recorded() != 8 {
		t.Errorf("recorded = %d, want 8", r.Recorded())
	}
	if frame := r.Drain(0); frame == nil || frame.Len() != 8 {
		t.Errorf("drained %v", frame)
	}
}

func TestRecorderDropsWhenFull(t *testing.T) {
	r := NewRecorder(testSchema(), nil, Options{Capacity: 4})
	for i := 0; i < 10; i++ {
		record(r, i, float64(i))
	}
	if r.Recorded() != 4 {
		t.Errorf("recorded = %d, want 4 (ring capacity)", r.Recorded())
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
	// Draining frees capacity for new samples.
	if frame := r.Drain(0); frame.Len() != 4 {
		t.Fatalf("drained %d rows", frame.Len())
	}
	record(r, 99, 99)
	if frame := r.Drain(0); frame == nil || frame.Len() != 1 || frame.At(0, features.NumIndices) != 99 {
		t.Errorf("post-drain record lost: %v", frame)
	}
}

// The smallest ring holds two rows: a third is dropped and counted, and
// draining returns the two it holds rather than spinning on a slot a
// producer overwrote (a ring of one slot did both).
func TestRecorderOfCapacityOne(t *testing.T) {
	r := NewRecorder(testSchema(), nil, Options{Capacity: 1})
	for i := 1; i <= 3; i++ {
		record(r, i, float64(i))
	}
	if r.Recorded() != 2 || r.Dropped() != 1 {
		t.Fatalf("recorded %d, dropped %d; want 2 and 1", r.Recorded(), r.Dropped())
	}
	drained := make(chan *dataset.Frame, 1)
	go func() { drained <- r.Drain(0) }()
	select {
	case frame := <-drained:
		if frame == nil || frame.Len() != 2 || frame.At(1, features.NumIndices) != 2 {
			t.Fatalf("drained %v, want the rows of 1 and 2 indices", frame)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return within 5 s")
	}
}

// TestRecorderConcurrentProducersAndConsumer exercises the ring under
// the race detector: many producers, one draining consumer, no sample
// corrupted (every drained row must be internally consistent).
func TestRecorderConcurrentProducersAndConsumer(t *testing.T) {
	schema := testSchema()
	r := NewRecorder(schema, nil, Options{Capacity: 64})
	const producers, perProducer = 8, 500

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := raja.NewKernel("race", nil)
			for i := 0; i < perProducer; i++ {
				n := 1 + i%7
				// elapsed = 1000*num_indices: lets the consumer check
				// row integrity.
				r.Record(k, raja.NewRange(0, n), raja.Params{}, float64(n)*1000)
			}
		}()
	}
	doneProducing := make(chan struct{})
	done := make(chan struct{})
	var drained int
	check := func(f *dataset.Frame) {
		for i := 0; i < f.Len(); i++ {
			n := f.At(i, features.NumIndices)
			if got := f.At(i, core.ColTimeNS); got != n*1000 {
				t.Errorf("torn row: num_indices=%v time_ns=%v", n, got)
			}
		}
		drained += f.Len()
	}
	go func() {
		defer close(done)
		for {
			frame := r.Drain(0)
			if frame != nil {
				check(frame)
				continue
			}
			select {
			case <-doneProducing:
				// One final sweep after producers stop.
				if f := r.Drain(0); f != nil {
					check(f)
				}
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(doneProducing)
	<-done

	total := r.Recorded()
	if uint64(drained) != total {
		t.Errorf("drained %d rows, recorder says %d", drained, total)
	}
}

func TestBatchRoundTripAndValidation(t *testing.T) {
	r := NewRecorder(testSchema(), nil, Options{})
	record(r, 5, 50)
	record(r, 6, 60)
	frame := r.Drain(0)
	b := NewBatch("app/policy", frame)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	back := b.Frame()
	if back.Len() != 2 || back.At(1, features.NumIndices) != 6 {
		t.Errorf("round trip lost rows: %v", back)
	}

	b.SchemaHash = "0000000000000000"
	if err := b.Validate(); err == nil {
		t.Error("bad schema hash accepted")
	}
	b.SchemaHash = ColumnsHash(b.Columns)
	b.Rows = append(b.Rows, []float64{1})
	if err := b.Validate(); err == nil {
		t.Error("short row accepted")
	}
}
