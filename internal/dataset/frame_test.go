package dataset

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// refFrame builds a frame of n rows of width w from the RNG and returns
// it with the same rows as a slice of rows, the storage Frame had before
// its rows moved into blocks.
func refFrame(rng *RNG, n, w int) (*Frame, [][]float64) {
	cols := make([]string, w)
	for j := range cols {
		cols[j] = fmt.Sprintf("c%d", j)
	}
	f, rows := NewFrame(cols...), make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, w)
		for j := range rows[i] {
			rows[i][j] = float64(rng.Intn(1000)) / 8
		}
		f.AddRow(rows[i])
	}
	return f, rows
}

// frameRows reads a frame back as a slice of rows.
func frameRows(f *Frame) [][]float64 {
	out := make([][]float64, f.Len())
	for i := range out {
		out[i] = append([]float64(nil), f.Row(i)...)
	}
	return out
}

func sameRows(t *testing.T, what string, got *Frame, want [][]float64) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), len(want))
	}
	for i, row := range want {
		if !reflect.DeepEqual(got.Row(i), row) {
			t.Fatalf("%s: row %d is %v, want %v", what, i, got.Row(i), row)
		}
	}
}

// Every operation on a block-backed frame agrees with the same operation
// on a slice of rows, for frames that end in the small first blocks, at
// their ends, and several full blocks on.
func TestFrameMatchesSliceOfRows(t *testing.T) {
	rng := NewRNG(51)
	for _, n := range []int{0, 1, 3, 8, 9, 16, 17, 511, 512, 513, blockRows - 1, blockRows, blockRows + 1, 2*blockRows + 37} {
		f, rows := refFrame(rng, n, 3)
		what := func(op string) string { return fmt.Sprintf("%d rows: %s", n, op) }
		sameRows(t, what("AddRow"), f, rows)
		sameRows(t, what("Clone"), f.Clone(), rows)

		g, more := refFrame(rng, 1+rng.Intn(blockRows+5), 3)
		both := f.Clone()
		both.Append(g)
		sameRows(t, what("Append"), both, append(append([][]float64(nil), rows...), more...))

		var kept [][]float64
		for _, r := range rows {
			if r[1] > 60 {
				kept = append(kept, r)
			}
		}
		sameRows(t, what("Filter"), f.Filter(func(r []float64) bool { return r[1] > 60 }), kept)

		var idx []int
		var picked [][]float64
		for k := 0; n > 0 && k < 50; k++ {
			i := rng.Intn(n)
			idx, picked = append(idx, i), append(picked, rows[i])
		}
		sameRows(t, what("SelectRows"), f.SelectRows(idx), picked)

		var projected [][]float64
		col := make([]float64, len(rows))
		for i, r := range rows {
			projected, col[i] = append(projected, []float64{r[2], r[0]}), r[2]
		}
		sameRows(t, what("Project"), f.Project("c2", "c0"), projected)
		if got := f.Column("c2"); !reflect.DeepEqual(got, col) {
			t.Fatalf("%s: %v", what("Column"), got)
		}

		var got, want bytes.Buffer
		if err := f.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		line, _ := HeaderLine(f.Cols())
		want.Write(line)
		for _, r := range rows {
			line, _ = AppendRow(nil, r)
			want.Write(append(line, '\n'))
		}
		if got.String() != want.String() {
			t.Fatalf("%s: WriteJSONL wrote other lines than its rows", what("WriteJSONL"))
		}
	}
}

// A row handed out is capped at its end: appending to it copies, and the
// row after it in the block stays as it was.
func TestAppendToRowLeavesNextRow(t *testing.T) {
	f, rows := refFrame(NewRNG(1), 3, 2)
	grown := append(f.Row(0), 99, 98)
	if !reflect.DeepEqual(f.Row(1), rows[1]) || len(grown) != 4 {
		t.Fatalf("appending to row 0 made row 1 %v, want %v", f.Row(1), rows[1])
	}
}

// Truncating into an earlier block, small or full, and adding rows again
// refills the blocks in order.
func TestTruncateAcrossBlocks(t *testing.T) {
	rng := NewRNG(2)
	f, rows := refFrame(rng, 2*blockRows+10, 2)
	for _, n := range []int{2 * blockRows, blockRows + 3, blockRows, blockRows - 1, 600, 9, 8, 0} {
		f.Truncate(n)
		sameRows(t, fmt.Sprintf("truncated to %d", n), f, rows[:n])
		g, more := refFrame(rng, blockRows+2, 2)
		f.Append(g)
		rows = append(rows[:n:n], more...)
		sameRows(t, fmt.Sprintf("truncated to %d and refilled", n), f, rows)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Row past Len did not panic")
		}
	}()
	f.Truncate(1)
	f.Row(1)
}

// Rows go into blocks: 10 000 of them take an allocation a block, not
// one a row, and a frame of 3 rows holds the first block's 8.
func TestAddRowAllocatesPerBlock(t *testing.T) {
	row := []float64{1, 2, 3, 4}
	const n = 10000
	var f *Frame
	allocs := testing.AllocsPerRun(5, func() {
		f = NewFrame("a", "b", "c", "d")
		for range n {
			f.AddRow(row)
		}
	})
	// One a block, and a few more: the list of blocks growing, NewFrame's.
	if blocks := len(f.blocks); allocs > float64(blocks+10) {
		t.Fatalf("%d rows in %d blocks: %.0f allocations", n, blocks, allocs)
	}
	f = NewFrame("a", "b", "c", "d")
	for range 3 {
		f.AddRow(row)
	}
	if len(f.blocks) != 1 || cap(f.blocks[0]) != 8*len(row) {
		t.Fatalf("a 3-row frame holds %d blocks, the first of capacity %d", len(f.blocks), cap(f.blocks[0]))
	}
}
