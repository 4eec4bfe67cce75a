package team

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"apollo/internal/bg/bgtest"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	tm := New(4)
	defer tm.Close()
	for _, tc := range []struct{ lo, hi, chunk int }{
		{0, 100, 7},
		{0, 100, 0},  // default chunk
		{0, 1, 1},    // single iteration
		{5, 23, 100}, // chunk larger than range
		{0, 1000, 1}, // chunk 1
		{-10, 10, 3}, // negative lo
		{0, 4, 1},    // exactly one chunk per worker
		{0, 0, 4},    // empty
		{10, 5, 2},   // inverted (empty)
	} {
		n := tc.hi - tc.lo
		if n < 0 {
			n = 0
		}
		counts := make([]int32, n)
		tm.ParallelFor(tc.lo, tc.hi, tc.chunk, func(i int) {
			atomic.AddInt32(&counts[i-tc.lo], 1)
		})
		for k, c := range counts {
			if c != 1 {
				t.Errorf("lo=%d hi=%d chunk=%d: index %d executed %d times", tc.lo, tc.hi, tc.chunk, tc.lo+k, c)
			}
		}
	}
}

func TestParallelForCoverageProperty(t *testing.T) {
	tm := New(3)
	defer tm.Close()
	f := func(nRaw uint16, chunkRaw uint8) bool {
		n := int(nRaw)%2000 + 1
		chunk := int(chunkRaw) % 70 // 0 = default
		counts := make([]int32, n)
		tm.ParallelFor(0, n, chunk, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParallelForBlocksUntilDone(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	var sum int64
	tm.ParallelFor(0, 10000, 13, func(i int) {
		atomic.AddInt64(&sum, int64(i))
	})
	want := int64(10000) * 9999 / 2
	if sum != want {
		t.Errorf("sum after join = %d, want %d (join barrier leaked work)", sum, want)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	tm := New(0)
	defer tm.Close()
	if tm.Size() < 1 {
		t.Errorf("Size = %d, want >= 1", tm.Size())
	}
}

func TestRegionsCounter(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	before := tm.Regions()
	tm.ParallelFor(0, 10, 0, func(int) {})
	tm.ParallelFor(0, 10, 0, func(int) {})
	tm.ParallelFor(0, 0, 0, func(int) {}) // empty: no region
	if got := tm.Regions() - before; got != 2 {
		t.Errorf("Regions delta = %d, want 2", got)
	}
}

func TestCloseIdempotentAndPanicsAfter(t *testing.T) {
	bgtest.NoLeaks(t)
	tm := New(2)
	tm.Close()
	tm.Close() // must not panic
	defer func() {
		if recover() == nil {
			t.Error("ParallelFor after Close should panic")
		}
	}()
	tm.ParallelFor(0, 10, 0, func(int) {})
}

func TestChunkAssignmentConservesWork(t *testing.T) {
	f := func(nRaw uint16, chunkRaw uint8, workersRaw uint8) bool {
		n := int(nRaw) % 5000
		chunk := int(chunkRaw) % 200
		workers := int(workersRaw)%16 + 1
		chunks, iters := ChunkAssignment(n, chunk, workers)
		totalIters, totalChunks := 0, 0
		for w := 0; w < workers; w++ {
			totalIters += iters[w]
			totalChunks += chunks[w]
		}
		if totalIters != n {
			return false
		}
		if n > 0 {
			c := chunk
			if c <= 0 {
				c = (n + workers - 1) / workers
			}
			if totalChunks != (n+c-1)/c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChunkAssignmentRoundRobinBalance(t *testing.T) {
	// 10 chunks over 4 workers: workers 0,1 get 3 chunks; 2,3 get 2.
	chunks, _ := ChunkAssignment(100, 10, 4)
	want := []int{3, 3, 2, 2}
	for w, c := range chunks {
		if c != want[w] {
			t.Errorf("worker %d got %d chunks, want %d", w, c, want[w])
		}
	}
}

func TestChunkAssignmentMatchesExecution(t *testing.T) {
	// The static schedule the team executes must agree with the
	// assignment the machine model assumes.
	workers, n, chunk := 4, 103, 10
	tm := New(workers)
	defer tm.Close()
	var executed int64
	tm.ParallelFor(0, n, chunk, func(i int) { atomic.AddInt64(&executed, 1) })
	_, iters := ChunkAssignment(n, chunk, workers)
	total := 0
	for _, it := range iters {
		total += it
	}
	if int(executed) != total {
		t.Errorf("executed %d iterations, assignment says %d", executed, total)
	}
}
