package ring

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{-3, 2}, {0, 2}, {1, 2}, {2, 2}, {3, 4}, {8, 8}, {1000, 1024}} {
		if got := New[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

// A full ring refuses the newest record and counts it; releasing a slot
// admits exactly one more; records come out in publish order.
func TestDropNewestWhenFullAndFIFO(t *testing.T) {
	r := New[int](4)
	for i := 0; i < 7; i++ {
		if rec, tk := r.Reserve(); rec != nil {
			*rec = i
			r.Publish(tk)
		}
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	rec, tk := r.Acquire()
	if rec == nil || *rec != 0 {
		t.Fatalf("first acquired record = %v, want 0", rec)
	}
	// Acquired but not released: the slot is still the consumer's.
	if again, _ := r.Reserve(); again != nil {
		t.Fatal("Reserve handed out a slot its consumer has not released")
	}
	r.Release(tk)
	if rec, tk := r.Reserve(); rec == nil {
		t.Fatal("Reserve refused after a release")
	} else {
		*rec = 7
		r.Publish(tk)
	}
	for _, want := range []int{1, 2, 3, 7} {
		rec, tk := r.Acquire()
		if rec == nil || *rec != want {
			t.Fatalf("acquired %v, want %d", rec, want)
		}
		r.Release(tk)
	}
	if rec, _ := r.Acquire(); rec != nil {
		t.Fatalf("empty ring yielded %d", *rec)
	}
	if got := r.Dropped(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
}

// Tickets keep working many laps past the capacity.
func TestTicketsWrapPastCapacity(t *testing.T) {
	r := New[uint64](4)
	for i := uint64(0); i < 4*37+3; i++ {
		rec, tk := r.Reserve()
		if rec == nil {
			t.Fatalf("lap record %d refused on a drained ring", i)
		}
		*rec = i
		r.Publish(tk)
		got, tk2 := r.Acquire()
		if got == nil || *got != i {
			t.Fatalf("record %d came back as %v", i, got)
		}
		r.Release(tk2)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d on a never-full ring", r.Dropped())
	}
}

// N producers and two consumers: every published record is taken exactly
// once, and every attempt is either published or counted as dropped.
// Records are slices into shared backing (the telemetry shape), copied
// out between Acquire and Release — under -race this is what proves the
// copy-before-release contract: a producer reusing the slot early would
// be a detected write/read race on the row, and a torn row would fail
// the consistency check.
func TestConcurrentProducersTwoConsumers(t *testing.T) {
	const producers, perProducer, width = 6, 4000, 5
	r := New[[]uint64](64)
	backing := make([]uint64, r.Cap()*width)
	r.Prefill(func(i int, row *[]uint64) { *row = backing[i*width : (i+1)*width : (i+1)*width] })

	var published atomic.Uint64
	var producing sync.WaitGroup
	for p := 0; p < producers; p++ {
		producing.Add(1)
		go func(p uint64) {
			defer producing.Done()
			for i := uint64(0); i < perProducer; i++ {
				row, tk := r.Reserve()
				if row == nil {
					continue
				}
				id := p<<32 | i
				for j := range *row {
					(*row)[j] = id
				}
				r.Publish(tk)
				published.Add(1)
			}
		}(uint64(p))
	}

	done := make(chan struct{})
	var consuming sync.WaitGroup
	taken := make([]map[uint64]int, 2)
	for c := range taken {
		taken[c] = map[uint64]int{}
		consuming.Add(1)
		go func(seen map[uint64]int) {
			defer consuming.Done()
			var row [width]uint64
			for {
				rec, tk := r.Acquire()
				if rec == nil {
					select {
					case <-done:
						// Producers finished before done closed, so one
						// more look after seeing it settles "empty".
						if rec, tk = r.Acquire(); rec == nil {
							return
						}
					default:
						continue
					}
				}
				copy(row[:], *rec)
				r.Release(tk)
				for _, v := range row {
					if v != row[0] {
						t.Errorf("torn row %v", row)
					}
				}
				seen[row[0]]++
			}
		}(taken[c])
	}
	producing.Wait()
	close(done)
	consuming.Wait()

	total := 0
	for id, n := range merge(taken) {
		if n != 1 {
			t.Errorf("record %#x taken %d times", id, n)
		}
		total++
	}
	if uint64(total) != published.Load() {
		t.Errorf("took %d distinct records, published %d", total, published.Load())
	}
	if got := published.Load() + r.Dropped(); got != producers*perProducer {
		t.Errorf("published %d + dropped %d = %d, want %d attempts", published.Load(), r.Dropped(), got, producers*perProducer)
	}
}

func merge(maps []map[uint64]int) map[uint64]int {
	out := map[uint64]int{}
	for _, m := range maps {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// Reserve and Publish are //apollo:hotpath: the produce side allocates
// nothing, full ring or not.
func TestReservePublishAllocFree(t *testing.T) {
	type event struct {
		seq  uint64
		name [32]byte
	}
	r := New[event](8)
	allocs := testing.AllocsPerRun(1000, func() {
		if rec, tk := r.Reserve(); rec != nil {
			rec.seq++
			r.Publish(tk)
		}
	})
	if allocs != 0 {
		t.Errorf("Reserve+Publish allocates %.1f objects per run, want 0", allocs)
	}
	if r.Dropped() == 0 {
		t.Error("the run never hit the full-ring path")
	}
}
