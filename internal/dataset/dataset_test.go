package dataset

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleFrame() *Frame {
	f := NewFrame("x", "y", "label")
	f.AddRow([]float64{1, 2, 0})
	f.AddRow([]float64{3.5, -1, 1})
	f.AddRow([]float64{0.001, 1e9, 1})
	return f
}

func TestFrameBasics(t *testing.T) {
	f := sampleFrame()
	if f.Len() != 3 || f.NumCols() != 3 {
		t.Fatalf("Len=%d NumCols=%d", f.Len(), f.NumCols())
	}
	if f.At(1, "x") != 3.5 {
		t.Errorf("At(1,x) = %g", f.At(1, "x"))
	}
	if !reflect.DeepEqual(f.Column("label"), []float64{0, 1, 1}) {
		t.Errorf("Column(label) = %v", f.Column("label"))
	}
	if f.Col("nope") != -1 {
		t.Error("Col of missing column should be -1")
	}
}

func TestAddRowWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong width should panic")
		}
	}()
	sampleFrame().AddRow([]float64{1})
}

func TestDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate column should panic")
		}
	}()
	NewFrame("a", "a")
}

func TestFilterProjectSelectRows(t *testing.T) {
	f := sampleFrame()
	pos := f.Filter(func(row []float64) bool { return row[2] == 1 })
	if pos.Len() != 2 {
		t.Errorf("Filter kept %d rows, want 2", pos.Len())
	}
	proj := f.Project("label", "x")
	if !reflect.DeepEqual(proj.Cols(), []string{"label", "x"}) {
		t.Errorf("Project cols = %v", proj.Cols())
	}
	if proj.At(1, "x") != 3.5 {
		t.Errorf("projected value wrong")
	}
	sel := f.SelectRows([]int{2, 0})
	if sel.Len() != 2 || sel.At(0, "y") != 1e9 {
		t.Error("SelectRows wrong")
	}
}

func TestAppendChecksColumns(t *testing.T) {
	f := sampleFrame()
	g := NewFrame("x", "y", "label")
	g.AddRow([]float64{9, 9, 0})
	f.Append(g)
	if f.Len() != 4 {
		t.Errorf("Append gave %d rows", f.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("Append with mismatched columns should panic")
		}
	}()
	f.Append(NewFrame("x", "label", "y"))
}

func TestCSVRoundTrip(t *testing.T) {
	f := sampleFrame()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Cols(), f.Cols()) || g.Len() != f.Len() {
		t.Fatal("round trip changed shape")
	}
	for i := 0; i < f.Len(); i++ {
		if !reflect.DeepEqual(g.Row(i), f.Row(i)) {
			t.Errorf("row %d: %v != %v", i, g.Row(i), f.Row(i))
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "samples.csv")
	f := sampleFrame()
	if err := f.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != f.Len() {
		t.Errorf("loaded %d rows, want %d", g.Len(), f.Len())
	}
}

func TestReadCSVBadData(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("a,b\n1,notanumber\n")); err == nil {
		t.Error("non-numeric cell should fail")
	}
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty input should fail (no header)")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,a\n1,2\n")); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("a header naming a column twice: err = %v, want it named", err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Error("zero seed should be remapped")
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKFoldPartitions(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 10
		folds := KFold(n, 10, seed)
		covered := make([]int, n)
		for _, fold := range folds {
			for _, i := range fold.Test {
				covered[i]++
			}
			// Train and test must not overlap.
			inTest := map[int]bool{}
			for _, i := range fold.Test {
				inTest[i] = true
			}
			for _, i := range fold.Train {
				if inTest[i] {
					return false
				}
			}
			if len(fold.Train)+len(fold.Test) != n {
				return false
			}
		}
		// Every sample appears in exactly one test fold.
		for _, c := range covered {
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

func TestKFoldBalanced(t *testing.T) {
	folds := KFold(105, 10, 1)
	if len(folds) != 10 {
		t.Fatalf("got %d folds", len(folds))
	}
	for _, fold := range folds {
		if len(fold.Test) < 10 || len(fold.Test) > 11 {
			t.Errorf("fold size %d not balanced", len(fold.Test))
		}
	}
}

func TestKFoldSmallN(t *testing.T) {
	folds := KFold(3, 10, 1)
	if len(folds) != 3 {
		t.Errorf("KFold(3,10) made %d folds, want 3", len(folds))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	f := sampleFrame()
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Cols(), f.Cols()) || g.Len() != f.Len() {
		t.Fatal("JSONL round trip changed shape")
	}
	for i := 0; i < f.Len(); i++ {
		if !reflect.DeepEqual(g.Row(i), f.Row(i)) {
			t.Errorf("row %d differs", i)
		}
	}
}

func TestJSONLFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frame.jsonl")
	f := sampleFrame()
	if err := f.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}
	g, err := LoadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != f.Len() {
		t.Error("file round trip lost rows")
	}
}

func TestJSONLRejectsBadInput(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString(`{"format":"other","columns":["a"]}` + "\n")); err == nil {
		t.Error("wrong format accepted")
	}
	bad := `{"format":"apollo-frame-v1","columns":["a","b"]}` + "\n[1]\n"
	if _, err := ReadJSONL(bytes.NewBufferString(bad)); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadJSONL(bytes.NewBufferString("")); err == nil {
		t.Error("empty input accepted")
	}
}
