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

// Annotations is a thread-safe blackboard of named attribute stacks.
// Reads are lock-free: the stack map is copy-on-write, published through
// an atomic pointer, because Get sits on the kernel-launch hot path
// (feature extraction reads application attributes per launch) while
// writes happen at scope boundaries like timesteps, orders of magnitude
// rarer. The zero value is not ready for use; call New.
type Annotations struct {
	// mu serializes writers; readers never take it.
	mu  sync.Mutex
	cur atomic.Pointer[map[string][]float64]
}

// New returns an empty annotation blackboard.
func New() *Annotations {
	a := &Annotations{}
	m := make(map[string][]float64)
	a.cur.Store(&m)
	return a
}

// mutate republishes the stack map with key's stack replaced by
// f(old stack). Both the map and the changed stack are fresh copies, so
// readers of the previous snapshot are never disturbed.
func (a *Annotations) mutate(key string, f func(st []float64) []float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.cur.Load()
	next := make(map[string][]float64, len(old)+1)
	for k, st := range old {
		next[k] = st
	}
	next[key] = f(append([]float64(nil), old[key]...))
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

// State is one published state of the blackboard, immutable however long
// it is held. States compare equal exactly when they are the same
// publication: every write publishes a fresh map, and a held State keeps
// its map alive, so the address cannot be reused while anything still
// compares against it. A State is thus its own version stamp — values
// cached from one (features' view) are current while State() returns it.
type State struct{ stacks *map[string][]float64 }

// State returns the current published state.
//
//apollo:hotpath
func (a *Annotations) State() State { return State{a.cur.Load()} }

// Get returns the (innermost) value the attribute had in this state.
//
//apollo:hotpath
func (s State) Get(key string) (float64, bool) {
	st := (*s.stacks)[key]
	if len(st) == 0 {
		return 0, false
	}
	return st[len(st)-1], true
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
	stacks := *a.cur.Load()
	out := make(map[string]float64, len(stacks))
	for k, st := range stacks {
		if len(st) > 0 {
			out[k] = st[len(st)-1]
		}
	}
	return out
}

// Keys returns the names of all currently set attributes, sorted.
func (a *Annotations) Keys() []string {
	stacks := *a.cur.Load()
	keys := make([]string, 0, len(stacks))
	for k, st := range stacks {
		if len(st) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Clear removes every attribute.
func (a *Annotations) Clear() {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := make(map[string][]float64)
	a.cur.Store(&m)
}
