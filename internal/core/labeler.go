package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"apollo/internal/dataset"
	"apollo/internal/features"
	"apollo/internal/raja"
)

// Labeler labels a sliding window of recorded samples incrementally.
// Add interns each incoming row's feature vector once and keeps only
// (group, class, time_ns) per row; Trim ages the oldest rows out and
// frees the groups no row references any more; Set re-accumulates the
// per-class runtime sums over the window in row order. Because the sums
// are taken over the same rows in the same order, and groups are listed
// by their first surviving row, Set is a pure function of the window's
// rows: a fresh Labeler given just those rows returns the same
// LabeledSet bit for bit (DESIGN.md §14). A retrain step therefore pays
// for the rows it adds, not for the window.
//
// A Labeler is not safe for concurrent use.
type Labeler struct {
	schema     *features.Schema
	param      Parameter
	numClasses int
	width      int

	rows     []labelRow // the window, oldest first
	poisoned int        // rows in the window marked rowPoison

	// Interned vectors: slot g's vector is vecs[g*width:(g+1)*width], and
	// byHash maps a vector hash to the first slot of its collision chain.
	// Slots released by Trim wait in free and are reused before the table
	// grows, so the table never holds more slots than the window held rows.
	groups []labelGroup
	vecs   []float64
	free   []int32
	byHash map[uint64]int32
	hash   func([]float64) uint64 // hashVector; tests force collisions here

	x     []float64      // one row's gathered feature vector
	stats []variantStats // Set scratch: numClasses entries per listed group
	order []int32        // Set scratch: slots in first-row order
}

// labelRow is what the window keeps of one sample.
type labelRow struct {
	group int32 // interned slot, or rowSkipped / rowPoison
	class int
	ns    float64
	w     float64 // launches the row stands for (ColWeight; 1 without it)
}

const (
	// rowSkipped marks a sample that does not take part in the parameter's
	// labelling (ChunkSize: sequential, or a chunk off the training grid).
	// It still occupies a window row.
	rowSkipped int32 = -1
	// rowPoison marks a sample whose class is outside the parameter's
	// range, or weight not finite and positive; Set reports it until Trim.
	rowPoison int32 = -2
)

// variantStats accumulates runtimes of one feature vector under one class.
type variantStats struct {
	total float64
	count float64
}

type labelGroup struct {
	hash  uint64
	next  int32 // next slot with the same hash, -1 at the end of the chain
	refs  int32 // window rows that reference the slot
	order int32 // position in Set's listing, -1 outside a Set call
}

// NewLabeler returns an empty labeler for the schema and parameter.
func NewLabeler(schema *features.Schema, param Parameter) *Labeler {
	return &Labeler{
		schema:     schema,
		param:      param,
		numClasses: param.NumClasses(),
		width:      schema.Len(),
		byHash:     make(map[uint64]int32),
		hash:       hashVector,
		x:          make([]float64, schema.Len()),
	}
}

// Len returns the number of rows in the window.
func (l *Labeler) Len() int { return len(l.rows) }

// Add appends every row of frame to the window. The frame must contain
// every feature of the schema plus the policy, chunk and time_ns columns;
// a frame that does not is rejected whole; a weight column counts a row as
// that many launches. For ExecutionPolicy all samples participate and the
// class is the policy; for ChunkSize only parallel samples whose chunk
// lies on the training grid do.
func (l *Labeler) Add(frame *dataset.Frame) error {
	featIdx := make([]int, l.width)
	for i, name := range l.schema.Names() {
		j := frame.Col(name)
		if j < 0 {
			return fmt.Errorf("core: frame is missing feature column %q", name)
		}
		featIdx[i] = j
	}
	polIdx := frame.Col(ColPolicy)
	chunkIdx := frame.Col(ColChunk)
	timeIdx := frame.Col(ColTimeNS)
	if polIdx < 0 || chunkIdx < 0 || timeIdx < 0 {
		return fmt.Errorf("core: frame is missing policy/chunk/time_ns columns")
	}

	weightIdx := frame.Col(ColWeight)

	l.rows = slices.Grow(l.rows, frame.Len())
	for r := 0; r < frame.Len(); r++ {
		row := frame.Row(r)
		out := labelRow{group: rowSkipped, ns: row[timeIdx], w: 1}
		if weightIdx >= 0 {
			out.w = row[weightIdx]
		}
		var takesPart bool
		out.class, takesPart = l.classOf(row[polIdx], row[chunkIdx])
		switch {
		case !takesPart:
		case out.class < 0 || out.class >= l.numClasses || !(out.w > 0 && out.w <= math.MaxFloat64):
			out.group = rowPoison
			l.poisoned++
		default:
			for i, j := range featIdx {
				v := row[j]
				if v != v {
					v = math.NaN() // one NaN: payloads do not tell vectors apart
				}
				l.x[i] = v
			}
			out.group = l.intern(l.x)
			l.groups[out.group].refs++
		}
		l.rows = append(l.rows, out)
	}
	return nil
}

// classOf maps a sample's policy and chunk to its class under the
// labeler's parameter; takesPart is false for a sample the parameter's
// labelling leaves out.
func (l *Labeler) classOf(policy, chunk float64) (class int, takesPart bool) {
	if l.param != ChunkSize {
		return int(policy), true
	}
	if raja.Policy(policy) != raja.OmpParallelForExec {
		return 0, false
	}
	class = ChunkClass(int(chunk))
	return class, class >= 0
}

// Trim drops the oldest rows until at most max remain, releasing every
// interned vector the window no longer references.
func (l *Labeler) Trim(max int) {
	over := len(l.rows) - max
	if over <= 0 {
		return
	}
	for _, row := range l.rows[:over] {
		switch row.group {
		case rowSkipped:
		case rowPoison:
			l.poisoned--
		default:
			if g := &l.groups[row.group]; g.refs == 1 {
				l.release(row.group)
			} else {
				g.refs--
			}
		}
	}
	l.rows = l.rows[:copy(l.rows, l.rows[over:])]
}

// Set labels the window: each unique feature vector observed under at
// least two classes becomes one labeled sample whose label is the class
// with the lowest mean runtime, each row counting as the launches its
// weight says. Vectors are listed in the order of their first row in the
// window. The returned set shares no storage with the labeler.
func (l *Labeler) Set() (*LabeledSet, error) {
	if l.poisoned > 0 {
		for r, row := range l.rows {
			if row.group == rowPoison {
				if row.class >= 0 && row.class < l.numClasses {
					return nil, fmt.Errorf("core: row %d has weight %v, want a positive finite launch count", r, row.w)
				}
				return nil, fmt.Errorf("core: row %d has out-of-range class %d for %v", r, row.class, l.param)
			}
		}
	}

	nc := l.numClasses
	stats, order := l.stats[:0], l.order[:0]
	for _, row := range l.rows {
		if row.group < 0 {
			continue
		}
		g := &l.groups[row.group]
		if g.order < 0 {
			g.order = int32(len(order))
			order = append(order, row.group)
			for c := 0; c < nc; c++ {
				stats = append(stats, variantStats{})
			}
		}
		st := &stats[int(g.order)*nc+row.class]
		st.total += row.ns * row.w
		st.count += row.w
	}
	l.stats, l.order = stats, order
	for _, slot := range order {
		l.groups[slot].order = -1
	}

	kept := 0
	for i := range order {
		if observedClasses(stats[i*nc:(i+1)*nc]) >= 2 {
			kept++
		}
	}
	if kept == 0 {
		return nil, fmt.Errorf("core: no feature vector was observed under multiple %v variants", l.param)
	}
	set := &LabeledSet{
		Schema:    l.schema,
		Param:     l.param,
		X:         make([][]float64, 0, kept),
		Y:         make([]int, 0, kept),
		MeanTimes: make([][]float64, 0, kept),
		Weights:   make([]float64, 0, kept),
	}
	xs := make([]float64, kept*l.width)
	means := make([]float64, kept*nc)
	for i, slot := range order {
		groupStats := stats[i*nc : (i+1)*nc]
		observed := observedClasses(groupStats)
		if observed < 2 {
			// A vector observed under a single variant carries no
			// preference signal; skip it, as the paper's labeling does.
			continue
		}
		best, bestTime := -1, math.Inf(1)
		m := means[:nc:nc]
		means = means[nc:]
		totalCount := 0.0
		for c, st := range groupStats {
			if st.count == 0 {
				m[c] = math.NaN()
				continue
			}
			totalCount += st.count
			m[c] = st.total / st.count
			if m[c] < bestTime {
				best, bestTime = c, m[c]
			}
		}
		x := xs[:l.width:l.width]
		xs = xs[l.width:]
		copy(x, l.vec(slot))
		set.X = append(set.X, x)
		set.Y = append(set.Y, best)
		set.MeanTimes = append(set.MeanTimes, m)
		set.Weights = append(set.Weights, totalCount/float64(observed))
	}
	return set, nil
}

func observedClasses(stats []variantStats) int {
	n := 0
	for _, st := range stats {
		if st.count > 0 {
			n++
		}
	}
	return n
}

func (l *Labeler) vec(slot int32) []float64 {
	return l.vecs[int(slot)*l.width : (int(slot)+1)*l.width]
}

// intern returns the slot holding x, claiming one when x is new. Two
// vectors share a slot exactly when every component has the same bits
// (Add has already folded NaNs into one), so 0 and -0 stay apart — the
// classes the string key of the shortest round-trip formatting drew.
func (l *Labeler) intern(x []float64) int32 {
	h := l.hash(x)
	head, chained := l.byHash[h]
	if chained {
		for g := head; g >= 0; g = l.groups[g].next {
			if sameBits(l.vec(g), x) {
				return g
			}
		}
	}
	var slot int32
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
		copy(l.vec(slot), x)
	} else {
		slot = int32(len(l.groups))
		l.groups = append(l.groups, labelGroup{})
		l.vecs = append(l.vecs, x...)
	}
	next := int32(-1)
	if chained {
		next = head
	}
	l.groups[slot] = labelGroup{hash: h, next: next, order: -1}
	l.byHash[h] = slot
	return slot
}

// release unlinks a slot no window row references and queues it for reuse.
func (l *Labeler) release(slot int32) {
	g := l.groups[slot]
	if head := l.byHash[g.hash]; head != slot {
		prev := head
		for l.groups[prev].next != slot {
			prev = l.groups[prev].next
		}
		l.groups[prev].next = g.next
	} else if g.next >= 0 {
		l.byHash[g.hash] = g.next
	} else {
		delete(l.byHash, g.hash)
	}
	l.groups[slot].refs = 0
	l.free = append(l.free, slot)
}

// hashVector mixes the bit patterns of x, two words to a 64×64→128
// multiply.
func hashVector(x []float64) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(len(x))
	for ; len(x) >= 2; x = x[2:] {
		hi, lo := bits.Mul64(h^math.Float64bits(x[0]), k^math.Float64bits(x[1]))
		h = hi ^ lo
	}
	if len(x) == 1 {
		hi, lo := bits.Mul64(h^math.Float64bits(x[0]), k)
		h = hi ^ lo
	}
	return h
}

func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Label builds the labeled training set for the given parameter from a
// frame of recorded samples: one Labeler window holding the whole frame.
func Label(frame *dataset.Frame, schema *features.Schema, param Parameter) (*LabeledSet, error) {
	l := NewLabeler(schema, param)
	if err := l.Add(frame); err != nil {
		return nil, err
	}
	return l.Set()
}
