// Package caliper is a lightweight annotation system, standing in for the
// LLNL Caliper library the paper uses to measure kernel runtimes and to
// attach arbitrary application-level attribute/value pairs (timestep,
// problem size, patch dimensions, ...) to each kernel sample.
//
// Applications push scoped attributes onto a blackboard; when Apollo's
// recorder captures a kernel execution it snapshots the current attribute
// values into the sample's feature vector. String-valued attributes (such
// as problem_name) are encoded as stable numeric IDs so that the decision
// trees, which split on numeric thresholds, can consume them — the same
// ordinal encoding the paper's Python pipeline applies.
package caliper

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

// Encode maps a string attribute value to a stable numeric code. The code
// is a deterministic hash of the string (FNV-1a 32), so it is identical
// across runs, processes, and applications — a requirement for the paper's
// cross-application experiments (Table III), where a model trained on one
// application's samples must see the same encoding in another's. The hash
// is inlined over the string so feature extraction on the launch path
// allocates nothing.
func Encode(s string) float64 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return float64(h)
}

// slotMu serializes interning; slotTab is the copy-on-write table of
// interned names and their slots, so a lookup is one atomic load. Names
// are interned process-wide and never released: what a process interns
// is the attribute names its schemas and writers use, a few dozen.
var (
	slotMu  sync.Mutex //apollo:lockrank 60
	slotTab atomic.Pointer[map[string]int]
)

func init() { slotTab.Store(&map[string]int{}) }

// Slot returns the attribute name's process-wide slot, interning the name
// on first use. A reader compiled against slots (features' board ops)
// reads a State by index, never by name.
func Slot(name string) int {
	if i, ok := (*slotTab.Load())[name]; ok {
		return i
	}
	slotMu.Lock()
	defer slotMu.Unlock()
	old := *slotTab.Load()
	i, ok := old[name]
	if !ok {
		next := maps.Clone(old)
		i, next[name] = len(old), len(old)
		slotTab.Store(&next)
	}
	return i
}

// Annotations is a thread-safe blackboard of named attribute stacks.
// Reads are lock-free: the stacks are copy-on-write, published through an
// atomic pointer, because feature extraction reads application attributes
// on the kernel-launch hot path, while writes happen at scope boundaries
// or, at most, once per launch. The zero value is not ready for use; call
// New.
type Annotations struct {
	// mu serializes writers; readers never take it.
	mu  sync.Mutex
	cur atomic.Pointer[[][]float64] // attribute stacks by slot
}

// New returns an empty annotation blackboard.
func New() *Annotations {
	a := &Annotations{}
	a.cur.Store(&[][]float64{})
	return a
}

// mutate republishes the stacks with key's stack replaced by f(old
// stack). Both the slot slice and the changed stack are fresh copies, so
// readers of the previous state are never disturbed.
func (a *Annotations) mutate(key string, f func(st []float64) []float64) {
	slot := Slot(key)
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.cur.Load()
	next := make([][]float64, max(len(old), slot+1))
	copy(next, old)
	next[slot] = f(append([]float64(nil), next[slot]...))
	a.cur.Store(&next)
}

// Set replaces the current value of the attribute (clearing any scope
// stack below it).
func (a *Annotations) Set(key string, value float64) {
	a.mutate(key, func(st []float64) []float64 { return append(st[:0], value) })
}

// SetString replaces the attribute with the encoded string value.
func (a *Annotations) SetString(key, value string) {
	a.Set(key, Encode(value))
}

// Begin pushes a scoped value for the attribute. Each Begin must be
// matched by an End with the same key.
func (a *Annotations) Begin(key string, value float64) {
	a.mutate(key, func(st []float64) []float64 { return append(st, value) })
}

// End pops the innermost scoped value of the attribute. Ending an
// attribute with no open scope is a no-op.
func (a *Annotations) End(key string) {
	a.mutate(key, func(st []float64) []float64 {
		if len(st) == 0 {
			return st
		}
		return st[:len(st)-1]
	})
}

// State is one published state of the blackboard: its attribute stacks
// indexed by slot, immutable however long it is held. States compare
// equal exactly when they are the same publication: every write
// publishes a fresh slice, and a held State keeps it alive, so the
// address cannot be reused while anything still compares against it.
type State struct{ stacks *[][]float64 }

// State returns the current published state.
//
//apollo:hotpath
func (a *Annotations) State() State { return State{a.cur.Load()} }

// At returns the (innermost) value of the attribute in slot in this
// state, 0 when it is unset.
//
//apollo:hotpath
func (s State) At(slot int) float64 {
	if stacks := *s.stacks; slot < len(stacks) {
		if st := stacks[slot]; len(st) > 0 {
			return st[len(st)-1]
		}
	}
	return 0
}

// Get returns the (innermost) value the attribute had in this state.
//
//apollo:hotpath
func (s State) Get(key string) (float64, bool) {
	slot, ok := (*slotTab.Load())[key]
	if !ok || slot >= len(*s.stacks) || len((*s.stacks)[slot]) == 0 {
		return 0, false
	}
	return s.At(slot), true
}

// Get returns the current (innermost) value of the attribute.
//
//apollo:hotpath
func (a *Annotations) Get(key string) (float64, bool) { return a.State().Get(key) }

// GetOr returns the current value of the attribute, or def if unset.
//
//apollo:hotpath
func (a *Annotations) GetOr(key string, def float64) float64 {
	if v, ok := a.Get(key); ok {
		return v
	}
	return def
}

// Snapshot returns the current value of every set attribute.
func (a *Annotations) Snapshot() map[string]float64 {
	st := a.State()
	out := make(map[string]float64, len(*st.stacks))
	for name := range *slotTab.Load() {
		if v, ok := st.Get(name); ok {
			out[name] = v
		}
	}
	return out
}

// Keys returns the names of all currently set attributes, sorted.
func (a *Annotations) Keys() []string {
	snap := a.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clear removes every attribute.
func (a *Annotations) Clear() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cur.Store(&[][]float64{})
}
