// Package dataset provides the tabular data handling Apollo's off-line
// training pipeline needs: a small columnar frame (the pandas/NumPy
// substitute), CSV persistence for recorded training samples, and
// deterministic shuffling and k-fold splitting for cross-validation.
package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strconv"
	"strings"
)

// Frame is a dense table of float64 values with named columns. Its rows
// live in blocks, row after row: adding a row copies it into its block,
// and a frame grows by adding a block, never by moving the rows it holds.
type Frame struct {
	cols   []string
	index  map[string]int
	n      int // rows
	blocks [][]float64
}

// Block 0 holds 8 rows and blocks 1 to smallBlocks 8, 16, … blockRows/2,
// each as many as all before it, so a frame of a few rows holds a few
// rows' storage; every later block holds blockRows, a power of two.
const (
	blockShift  = 10
	blockRows   = 1 << blockShift
	smallBlocks = blockShift - 3
)

// blockOf returns the block of row i, the row's index in it and the rows
// the block holds.
func blockOf(i int) (b, j, rows int) {
	switch b = bits.Len(uint(i) >> 3); {
	case i >= blockRows:
		return i>>blockShift + smallBlocks, i & (blockRows - 1), blockRows
	case b == 0:
		return 0, i, 8
	}
	return b, i - 4<<b, 4 << b
}

// NewFrame returns an empty frame with the given columns.
func NewFrame(cols ...string) *Frame {
	f := &Frame{cols: append([]string(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range f.cols {
		if _, dup := f.index[c]; dup {
			panic(fmt.Sprintf("dataset: duplicate column %q", c))
		}
		f.index[c] = i
	}
	return f
}

// Cols returns the column names in order.
func (f *Frame) Cols() []string { return append([]string(nil), f.cols...) }

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// Len returns the number of rows.
func (f *Frame) Len() int { return f.n }

// Col returns the index of the named column, or -1.
func (f *Frame) Col(name string) int {
	if i, ok := f.index[name]; ok {
		return i
	}
	return -1
}

// MustCol returns the index of the named column, panicking if absent.
func (f *Frame) MustCol(name string) int {
	i := f.Col(name)
	if i < 0 {
		panic(fmt.Sprintf("dataset: no column %q", name))
	}
	return i
}

// AddRow appends a row, which must have exactly NumCols values. The row
// is copied.
func (f *Frame) AddRow(row []float64) {
	w := len(f.cols)
	if len(row) != w {
		panic(fmt.Sprintf("dataset: row has %d values, frame has %d columns", len(row), w))
	}
	b, j, rows := blockOf(f.n)
	if b == len(f.blocks) {
		f.blocks = append(f.blocks, make([]float64, rows*w))
	}
	copy(f.blocks[b][j*w:], row)
	f.n++
}

// Truncate drops every row after the first n. Rows added afterwards reuse
// the storage of the rows dropped.
func (f *Frame) Truncate(n int) {
	if n < 0 || n > f.n {
		panic(fmt.Sprintf("dataset: Truncate(%d) of a frame of %d rows", n, f.n))
	}
	f.n = n
}

// Row returns the i-th row. The returned slice is the frame's storage,
// capped at the row: callers must not modify it, and appending to it
// copies.
func (f *Frame) Row(i int) []float64 {
	if uint(i) >= uint(f.n) {
		panic(fmt.Sprintf("dataset: row %d of a frame of %d rows", i, f.n))
	}
	b, j, _ := blockOf(i)
	w := len(f.cols)
	return f.blocks[b][j*w : (j+1)*w : (j+1)*w]
}

// At returns the value at row i, column name.
func (f *Frame) At(i int, name string) float64 { return f.Row(i)[f.MustCol(name)] }

// Column returns a copy of the named column's values.
func (f *Frame) Column(name string) []float64 {
	j := f.MustCol(name)
	out := make([]float64, f.n)
	for i := range out {
		out[i] = f.Row(i)[j]
	}
	return out
}

// Append copies all rows of other (which must have identical columns in
// identical order) into f.
func (f *Frame) Append(other *Frame) {
	if len(other.cols) != len(f.cols) {
		panic("dataset: Append with mismatched columns")
	}
	for i, c := range other.cols {
		if f.cols[i] != c {
			panic(fmt.Sprintf("dataset: Append column mismatch at %d: %q vs %q", i, f.cols[i], c))
		}
	}
	for i := range other.n {
		f.AddRow(other.Row(i))
	}
}

// Clone returns a deep copy of the frame: same columns, copied rows.
// Mutating either frame afterwards leaves the other untouched.
func (f *Frame) Clone() *Frame {
	out := NewFrame(f.cols...)
	out.Append(f)
	return out
}

// Filter returns a new frame holding the rows for which keep returns true.
func (f *Frame) Filter(keep func(row []float64) bool) *Frame {
	out := NewFrame(f.cols...)
	for i := range f.n {
		if r := f.Row(i); keep(r) {
			out.AddRow(r)
		}
	}
	return out
}

// SelectRows returns a new frame holding the rows at the given indices.
func (f *Frame) SelectRows(idx []int) *Frame {
	out := NewFrame(f.cols...)
	for _, i := range idx {
		out.AddRow(f.Row(i))
	}
	return out
}

// Project returns a new frame with only the named columns, in that order.
func (f *Frame) Project(cols ...string) *Frame {
	js := make([]int, len(cols))
	for k, c := range cols {
		js[k] = f.MustCol(c)
	}
	out := NewFrame(cols...)
	row := make([]float64, len(cols))
	for i := range f.n {
		r := f.Row(i)
		for k, j := range js {
			row[k] = r[j]
		}
		out.AddRow(row)
	}
	return out
}

// WriteCSV writes the frame with a header row.
func (f *Frame) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(f.cols); err != nil {
		return err
	}
	rec := make([]string, len(f.cols))
	for i := range f.n {
		for j, v := range f.Row(i) {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV reads a frame written by WriteCSV.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if err := distinctColumns(header); err != nil {
		return nil, fmt.Errorf("dataset: CSV header: %w", err)
	}
	f := NewFrame(header...)
	row := make([]float64, len(header))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), len(header))
		}
		for j, s := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d field %q: %w", line, header[j], err)
			}
			row[j] = v
		}
		f.AddRow(row)
	}
	return f, nil
}

// SaveCSV writes the frame to the named file.
func (f *Frame) SaveCSV(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteCSV(file); err != nil {
		file.Close() //apollo:errok Close on the error path; the write error is already being returned
		return err
	}
	return file.Close()
}

// LoadCSV reads a frame from the named file.
func LoadCSV(path string) (*Frame, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return ReadCSV(file)
}

// RNG is a small deterministic xorshift64* generator used for shuffling
// and fold assignment, so cross-validation results are reproducible.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed (0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("dataset: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fold is one train/test split of a k-fold cross-validation.
type Fold struct {
	Train, Test []int
}

// KFold partitions n row indices into k folds after a deterministic
// shuffle with the given seed, returning the k train/test splits used for
// the paper's 10-fold cross-validation.
func KFold(n, k int, seed uint64) []Fold {
	if k < 2 {
		panic("dataset: KFold requires k >= 2")
	}
	if n < k {
		k = n
	}
	perm := NewRNG(seed).Perm(n)
	folds := make([]Fold, k)
	// Distribute indices round-robin so fold sizes differ by at most 1.
	buckets := make([][]int, k)
	for i, p := range perm {
		buckets[i%k] = append(buckets[i%k], p)
	}
	for f := 0; f < k; f++ {
		folds[f].Test = buckets[f]
		for g := 0; g < k; g++ {
			if g != f {
				folds[f].Train = append(folds[f].Train, buckets[g]...)
			}
		}
	}
	return folds
}
