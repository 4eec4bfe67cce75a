package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// referenceLabel is batch labelling as it was before the Labeler: every
// row keyed by the shortest round-trip formatting of its features, sums
// taken in row order, groups listed by first row. The Labeler must agree
// with it bit for bit on any window. The one liberty: a NaN feature is
// stored as math.NaN(), since the key never told NaN payloads apart and
// the Labeler keeps one. A weight column, when the frame has one, counts
// each row as that many launches.
func referenceLabel(frame *dataset.Frame, schema *features.Schema, param Parameter) (*LabeledSet, error) {
	featIdx := make([]int, schema.Len())
	for i, name := range schema.Names() {
		featIdx[i] = frame.MustCol(name)
	}
	polIdx, chunkIdx, timeIdx := frame.MustCol(ColPolicy), frame.MustCol(ColChunk), frame.MustCol(ColTimeNS)
	weightIdx := frame.Col(ColWeight)
	numClasses := param.NumClasses()
	type group struct {
		x     []float64
		stats []variantStats
	}
	groups := make(map[string]*group)
	var ordered []*group
	var keyBuf strings.Builder
	for r := 0; r < frame.Len(); r++ {
		row := frame.Row(r)
		var class int
		switch param {
		case ExecutionPolicy:
			class = int(row[polIdx])
		case ChunkSize:
			if raja.Policy(row[polIdx]) != raja.OmpParallelForExec {
				continue
			}
			class = ChunkClass(int(row[chunkIdx]))
			if class < 0 {
				continue
			}
		}
		if class < 0 || class >= numClasses {
			return nil, fmt.Errorf("core: row %d has out-of-range class %d for %v", r, class, param)
		}
		w := 1.0
		if weightIdx >= 0 {
			w = row[weightIdx]
		}
		keyBuf.Reset()
		for _, j := range featIdx {
			keyBuf.WriteString(strconv.FormatFloat(row[j], 'g', -1, 64))
			keyBuf.WriteByte('|')
		}
		g := groups[keyBuf.String()]
		if g == nil {
			x := make([]float64, len(featIdx))
			for i, j := range featIdx {
				if x[i] = row[j]; math.IsNaN(x[i]) {
					x[i] = math.NaN()
				}
			}
			g = &group{x: x, stats: make([]variantStats, numClasses)}
			groups[keyBuf.String()] = g
			ordered = append(ordered, g)
		}
		g.stats[class].total += row[timeIdx] * w
		g.stats[class].count += w
	}
	set := &LabeledSet{Schema: schema, Param: param}
	for _, g := range ordered {
		best, bestTime := -1, math.Inf(1)
		means := make([]float64, numClasses)
		observed, totalCount := 0, 0.0
		for c, st := range g.stats {
			if st.count == 0 {
				means[c] = math.NaN()
				continue
			}
			observed++
			totalCount += st.count
			means[c] = st.total / st.count
			if means[c] < bestTime {
				best, bestTime = c, means[c]
			}
		}
		if observed < 2 {
			continue
		}
		set.X = append(set.X, g.x)
		set.Y = append(set.Y, best)
		set.MeanTimes = append(set.MeanTimes, means)
		set.Weights = append(set.Weights, totalCount/float64(observed))
	}
	if len(set.X) == 0 {
		return nil, fmt.Errorf("core: no feature vector was observed under multiple %v variants", param)
	}
	return set, nil
}

func sameFloats(a, b []float64) bool {
	return len(a) == len(b) && sameBits(a, b)
}

// diffSets reports the first bitwise difference between two labeled sets.
func diffSets(got, want *LabeledSet) string {
	if got.Len() != want.Len() || len(got.Y) != len(want.Y) ||
		len(got.MeanTimes) != len(want.MeanTimes) || len(got.Weights) != len(want.Weights) {
		return fmt.Sprintf("%d vectors, want %d", got.Len(), want.Len())
	}
	for i := range want.X {
		switch {
		case !sameFloats(got.X[i], want.X[i]):
			return fmt.Sprintf("X[%d] = %v, want %v", i, got.X[i], want.X[i])
		case got.Y[i] != want.Y[i]:
			return fmt.Sprintf("Y[%d] = %d, want %d", i, got.Y[i], want.Y[i])
		case !sameFloats(got.MeanTimes[i], want.MeanTimes[i]):
			return fmt.Sprintf("MeanTimes[%d] = %v, want %v", i, got.MeanTimes[i], want.MeanTimes[i])
		case math.Float64bits(got.Weights[i]) != math.Float64bits(want.Weights[i]):
			return fmt.Sprintf("Weights[%d] = %v, want %v", i, got.Weights[i], want.Weights[i])
		}
	}
	return ""
}

// awkward are feature values whose equality is easy to get wrong: both
// zeros, NaNs that differ only in payload, a denormal and its neighbour,
// infinities, and values that differ in the last bit.
var awkward = []float64{
	0, math.Copysign(0, -1), 1, -1, 64,
	math.NaN(), math.Float64frombits(0x7ff8000000000bad), math.Float64frombits(0xfff0000000000001),
	math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), 0.1, math.Nextafter(0.1, 1), 1e300,
}

// randomSample draws one recorded row over a three-feature schema: few
// enough distinct vectors that groups fill up, every policy and chunk
// (on and off the grid), and now and then a class out of range.
func randomSample(rng *dataset.RNG) []float64 {
	row := make([]float64, 6)
	for i := 0; i < 3; i++ {
		row[i] = awkward[rng.Intn(len(awkward))]
		if i > 0 && rng.Intn(3) > 0 {
			row[i] = 0 // most vectors differ in the first feature only
		}
	}
	row[3] = float64(rng.Intn(int(raja.NumPolicies)))
	switch rng.Intn(400) {
	case 0:
		row[3] = 7
	case 1:
		row[3] = -1
	}
	row[4] = float64(raja.ChunkSizes[rng.Intn(len(raja.ChunkSizes))])
	if rng.Intn(8) == 0 {
		row[4] = 3 // off the training grid
	}
	row[5] = 100 + 1e4*rng.Float64()
	return row
}

// TestLabelerMatchesBatchLabelling drives random Add/Trim sequences and
// checks after every step that Set equals the reference labelling of the
// rows then in the window — same set bit for bit, or the same error — for
// both parameters, and with the hash seam forcing every vector, or most,
// onto one collision chain; and again with a weight column of the
// strides a tuner thins by.
func TestLabelerMatchesBatchLabelling(t *testing.T) {
	schema := features.NewSchema(features.NumIndices, features.FuncSize, features.Stride)
	hashes := map[string]func([]float64) uint64{
		"hashVector": hashVector,
		"constant":   func([]float64) uint64 { return 42 },
		"two-bit":    func(x []float64) uint64 { return hashVector(x) & 3 },
		"weighted":   hashVector,
	}
	for _, param := range []Parameter{ExecutionPolicy, ChunkSize} {
		for name, hash := range hashes {
			cols := RecordColumns(schema)
			sample := randomSample
			if name == "weighted" {
				cols = append(cols, ColWeight)
				sample = func(rng *dataset.RNG) []float64 {
					return append(randomSample(rng), float64(int(1)<<rng.Intn(7)))
				}
			}
			t.Run(param.String()+"/"+name, func(t *testing.T) {
				for seed := uint64(1); seed <= 20; seed++ {
					rng := dataset.NewRNG(seed)
					l := NewLabeler(schema, param)
					l.hash = hash
					var window [][]float64
					sets := 0
					for step := 0; step < 60; step++ {
						fresh := dataset.NewFrame(cols...)
						for n := rng.Intn(30); n > 0; n-- {
							fresh.AddRow(sample(rng))
						}
						if err := l.Add(fresh); err != nil {
							t.Fatal(err)
						}
						for r := 0; r < fresh.Len(); r++ {
							window = append(window, fresh.Row(r))
						}
						if rng.Intn(3) > 0 {
							max := rng.Intn(120)
							l.Trim(max)
							if over := len(window) - max; over > 0 {
								window = window[over:]
							}
						}
						if l.Len() != len(window) {
							t.Fatalf("seed %d step %d: window holds %d rows, want %d", seed, step, l.Len(), len(window))
						}
						batch := dataset.NewFrame(cols...)
						for _, row := range window {
							batch.AddRow(row)
						}
						want, wantErr := referenceLabel(batch, schema, param)
						got, gotErr := l.Set()
						if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
							t.Fatalf("seed %d step %d: Set error %v, want %v", seed, step, gotErr, wantErr)
						}
						if wantErr != nil {
							continue
						}
						sets++
						if d := diffSets(got, want); d != "" {
							t.Fatalf("seed %d step %d: %s", seed, step, d)
						}
						// Label is the same labeler over the whole frame.
						whole, err := Label(batch, schema, param)
						if err != nil {
							t.Fatal(err)
						}
						if d := diffSets(whole, want); d != "" {
							t.Fatalf("seed %d step %d: Label: %s", seed, step, d)
						}
					}
					if sets == 0 {
						t.Fatalf("seed %d: no window labelled; the property was not exercised", seed)
					}
				}
			})
		}
	}
}

// uniqueRows returns n rows whose vectors have never been seen: the
// counter next makes each num_indices new.
func uniqueRows(cols []string, next *int, n int) *dataset.Frame {
	frame := dataset.NewFrame(cols...)
	for i := 0; i < n; i++ {
		*next++
		frame.AddRow([]float64{float64(*next), float64(*next % 2), float64(raja.DefaultChunk), 100})
	}
	return frame
}

// A daemon fed vectors that never repeat must not grow: the interned
// table holds at most one slot per window row (plus the rows of one Add
// before its Trim), released slots are reused, and the hash index empties
// with them.
func TestLabelerGroupsStayBounded(t *testing.T) {
	schema := testSchema()
	cols := RecordColumns(schema)
	const window, chunk = 1000, 100
	for name, hash := range map[string]func([]float64) uint64{
		"hashVector": hashVector,
		"two-bit":    func(x []float64) uint64 { return hashVector(x) & 3 },
	} {
		t.Run(name, func(t *testing.T) {
			l := NewLabeler(schema, ExecutionPolicy)
			l.hash = hash
			next := 0
			for fed := 0; fed < 10*window; fed += chunk {
				if err := l.Add(uniqueRows(cols, &next, chunk)); err != nil {
					t.Fatal(err)
				}
				l.Trim(window)
				live := len(l.groups) - len(l.free)
				if l.Len() > window || live != l.Len() {
					t.Fatalf("after %d rows: %d window rows, %d live groups", fed+chunk, l.Len(), live)
				}
				if len(l.groups) > window+chunk || len(l.vecs) != len(l.groups)*l.width {
					t.Fatalf("after %d rows: %d slots (%d vector words) for a %d-row window",
						fed+chunk, len(l.groups), len(l.vecs), window)
				}
				chained := 0
				for _, head := range l.byHash {
					for g := head; g >= 0; g = l.groups[g].next {
						chained++
					}
				}
				if len(l.byHash) > live || chained != live {
					t.Fatalf("after %d rows: hash index has %d keys chaining %d slots, %d groups live",
						fed+chunk, len(l.byHash), chained, live)
				}
			}
			// Everything ages out: the table is empty but keeps its slots.
			l.Trim(0)
			if len(l.byHash) != 0 || len(l.free) != len(l.groups) {
				t.Fatalf("empty window keeps %d hash keys, %d of %d slots free", len(l.byHash), len(l.free), len(l.groups))
			}
		})
	}
}

// A row with an out-of-range class fails Set with its window position
// until it ages out — neither dropped on entry nor remembered after.
func TestLabelerPoisonRowAgesOut(t *testing.T) {
	schema := testSchema()
	cols := RecordColumns(schema)
	pair := func(n float64) *dataset.Frame {
		frame := dataset.NewFrame(cols...)
		frame.AddRow([]float64{n, float64(raja.SeqExec), 0, 100})
		frame.AddRow([]float64{n, float64(raja.OmpParallelForExec), 0, 50})
		return frame
	}
	poison := dataset.NewFrame(cols...)
	poison.AddRow([]float64{5, 9, 0, 100})

	l := NewLabeler(schema, ExecutionPolicy)
	for _, frame := range []*dataset.Frame{pair(1), poison, pair(2)} {
		if err := l.Add(frame); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		max  int
		want string
	}{
		{5, "core: row 2 has out-of-range class 9 for execution_policy"},
		{4, "core: row 1 has out-of-range class 9 for execution_policy"},
		{3, "core: row 0 has out-of-range class 9 for execution_policy"},
		{2, ""},
	} {
		l.Trim(step.max)
		set, err := l.Set()
		if step.want != "" {
			if err == nil || err.Error() != step.want {
				t.Fatalf("window of %d: Set error %v, want %q", step.max, err, step.want)
			}
			// Asking again changes nothing.
			if _, again := l.Set(); again == nil || again.Error() != step.want {
				t.Fatalf("window of %d: second Set error %v, want %q", step.max, again, step.want)
			}
			continue
		}
		if err != nil || set.Len() != 1 || set.X[0][0] != 2 {
			t.Fatalf("after the poison row aged out: set %+v, err %v", set, err)
		}
	}
}

// ChunkSize labelling ignores sequential and off-grid samples, but they
// are telemetry rows all the same and take up window room.
func TestLabelerSkippedRowsOccupyTheWindow(t *testing.T) {
	schema := testSchema()
	frame := dataset.NewFrame(RecordColumns(schema)...)
	frame.AddRow([]float64{8, float64(raja.OmpParallelForExec), 16, 100})
	frame.AddRow([]float64{8, float64(raja.OmpParallelForExec), 64, 50})
	for i := 0; i < 3; i++ {
		frame.AddRow([]float64{8, float64(raja.SeqExec), 0, 10})
		frame.AddRow([]float64{8, float64(raja.OmpParallelForExec), 3, 10})
	}
	l := NewLabeler(schema, ChunkSize)
	if err := l.Add(frame); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 8 {
		t.Fatalf("window holds %d rows, want all 8", l.Len())
	}
	if set, err := l.Set(); err != nil || set.Len() != 1 || raja.ChunkSizes[set.Y[0]] != 64 {
		t.Fatalf("set %+v, err %v", set, err)
	}
	// Seven rows: the oldest participating row is gone, so the vector is
	// left with one observed chunk and the window cannot be labelled.
	l.Trim(7)
	if _, err := l.Set(); err == nil {
		t.Fatal("a window whose only vector has one variant left was labelled")
	}
	if live := len(l.groups) - len(l.free); live != 1 {
		t.Fatalf("%d live groups, want the one vector", live)
	}
	l.Trim(6)
	if live := len(l.groups) - len(l.free); live != 0 || l.Len() != 6 {
		t.Fatalf("%d live groups over %d skipped rows, want 0 over 6", live, l.Len())
	}
}

// A set handed out must not change when the labeler moves on.
func TestLabelerSetSharesNoStorage(t *testing.T) {
	schema := testSchema()
	l := NewLabeler(schema, ExecutionPolicy)
	if err := l.Add(syntheticFrame(schema)); err != nil {
		t.Fatal(err)
	}
	set, err := l.Set()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), set.X[0]...)
	l.Trim(0)
	next := 1 << 20
	if err := l.Add(uniqueRows(RecordColumns(schema), &next, 64)); err != nil {
		t.Fatal(err)
	}
	if !sameFloats(set.X[0], before) {
		t.Fatalf("X[0] changed from %v to %v under a later Add", before, set.X[0])
	}
}

// labelBenchFrame fabricates telemetry like the repository benchmark's
// loop phase: rows drawn from a pool of Table-I vectors, each under seq
// and omp, with noise on the time.
func labelBenchFrame(schema *features.Schema, rows int, rng *dataset.RNG) *dataset.Frame {
	const pool = 400
	frame := dataset.NewFrame(RecordColumns(schema)...)
	for i := 0; i < rows; i++ {
		v := rng.Intn(pool)
		row := make([]float64, schema.Len()+3)
		for j := 0; j < schema.Len(); j++ {
			row[j] = float64((v*(j+3))%977) * 1.5
		}
		row[schema.Len()] = float64(rng.Intn(2))
		row[schema.Len()+2] = 1000 * (1 + rng.Float64())
		frame.AddRow(row)
	}
	return frame
}

var benchSet *LabeledSet

// BenchmarkLabel times labelling a trainer window two ways: batch (a
// fresh labeler over the whole window, what core.Label does) and the
// steady-state step (2000 fresh rows into a full window, trim, Set).
func BenchmarkLabel(b *testing.B) {
	schema := features.TableI()
	for _, window := range []int{20000, 100000} {
		rng := dataset.NewRNG(1)
		frame := labelBenchFrame(schema, window, rng)
		b.Run(fmt.Sprintf("batch/%dk", window/1000), func(b *testing.B) {
			var err error
			for i := 0; i < b.N; i++ {
				if benchSet, err = Label(frame, schema, ExecutionPolicy); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(window)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
		b.Run(fmt.Sprintf("step/%dk", window/1000), func(b *testing.B) {
			const fresh = 2000
			l := NewLabeler(schema, ExecutionPolicy)
			if err := l.Add(frame); err != nil {
				b.Fatal(err)
			}
			steps := make([]*dataset.Frame, 16)
			for i := range steps {
				steps[i] = labelBenchFrame(schema, fresh, rng)
			}
			b.ResetTimer()
			var err error
			for i := 0; i < b.N; i++ {
				if err = l.Add(steps[i%len(steps)]); err != nil {
					b.Fatal(err)
				}
				l.Trim(window)
				if benchSet, err = l.Set(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLabelerWeightCountsLaunches: a row of weight w labels as w copies of
// it would, and a weight that is not a positive finite count poisons the
// window like an out-of-range class.
func TestLabelerWeightCountsLaunches(t *testing.T) {
	schema := features.NewSchema(features.NumIndices)
	rows := [][]float64{
		{64, float64(raja.SeqExec), float64(raja.DefaultChunk), 100},
		{64, float64(raja.OmpParallelForExec), float64(raja.DefaultChunk), 300},
		{64, float64(raja.SeqExec), float64(raja.DefaultChunk), 500},
	}
	copies, weighted := dataset.NewFrame(RecordColumns(schema)...), dataset.NewFrame(append(RecordColumns(schema), ColWeight)...)
	for i, row := range rows {
		w := []int{4, 1, 1}[i]
		weighted.AddRow(append(append([]float64(nil), row...), float64(w)))
		for ; w > 0; w-- {
			copies.AddRow(row)
		}
	}
	want, err := Label(copies, schema, ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Label(weighted, schema, ExecutionPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffSets(got, want); d != "" {
		t.Fatal(d)
	}
	if got.Y[0] != int(raja.SeqExec) || got.Weights[0] != 3 {
		t.Fatalf("label %d weight %v, want seq (mean 180 ns against 300) over 6 launches of 2 variants", got.Y[0], got.Weights[0])
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		f := dataset.NewFrame(append(RecordColumns(schema), ColWeight)...)
		f.AddRow([]float64{64, 0, float64(raja.DefaultChunk), 100, bad})
		if _, err := Label(f, schema, ExecutionPolicy); err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("weight %v: Label error %v, want the weight named", bad, err)
		}
	}
}
