// Package hashring is the fleet layer's consistent-hash ring: it maps a
// routing key — conventionally the (app, model namespace) prefix of a
// registry name, e.g. "lulesh/policy" — onto one of N serving replicas,
// with bounded key movement when membership changes. Each member owns
// many virtual nodes, so removing a replica redistributes only its own
// ~1/N share of the key space across the survivors instead of reshuffling
// everything, and clients that lose their primary fail over to the next
// distinct member clockwise on the ring.
//
// Lookups sit on the client's launch path (every model fetch and
// telemetry upload routes through one), so the ring is copy-on-write
// behind an atomic pointer: Lookup is one atomic load, an inline FNV-1a
// hash, and a binary search — no locks, no allocation, enforced by
// apollo-vet's hotpath analyzer. Membership changes clone and republish
// the table under a mutex; an in-flight Lookup keeps reading the table it
// loaded, so a concurrent Add/Remove can never tear a routing decision.
package hashring

import (
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultVnodes is the virtual-node count per member. 128 vnodes keeps
// the per-member ownership share within a few percent of 1/N for small
// fleets while the table stays a few kilobytes.
const DefaultVnodes = 128

// Ring routes keys to members. The zero value is not usable; call New.
type Ring struct {
	vnodes int

	// mu serializes membership changes only; lookups never take it.
	mu  sync.Mutex //apollo:lockrank 15
	cur atomic.Pointer[table]
}

// table is one immutable published view of the ring: vnode hashes sorted
// ascending with the owning member parallel to them.
type table struct {
	hashes  []uint64
	owners  []string
	members []string // sorted distinct member ids
}

// New returns an empty ring with vnodes virtual nodes per member
// (DefaultVnodes when <= 0).
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{vnodes: vnodes}
	r.cur.Store(&table{})
	return r
}

// Len returns the current member count.
func (r *Ring) Len() int { return len(r.cur.Load().members) }

// Add inserts member id, a no-op if it is already present.
func (r *Ring) Add(id string) {
	if id == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	for _, m := range old.members {
		if m == id {
			return
		}
	}
	r.rebuildLocked(append(append([]string(nil), old.members...), id))
}

// Remove deletes member id, a no-op if it is absent.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	next := make([]string, 0, len(old.members))
	for _, m := range old.members {
		if m != id {
			next = append(next, m)
		}
	}
	if len(next) == len(old.members) {
		return
	}
	r.rebuildLocked(next)
}

// rebuildLocked recomputes and publishes the vnode table for members.
// Vnode hashes depend only on (member id, vnode index), so two rings
// with the same membership route identically regardless of join order.
func (r *Ring) rebuildLocked(members []string) {
	sort.Strings(members)
	t := &table{
		hashes:  make([]uint64, 0, len(members)*r.vnodes),
		owners:  make([]string, 0, len(members)*r.vnodes),
		members: members,
	}
	for _, id := range members {
		for i := 0; i < r.vnodes; i++ {
			t.hashes = append(t.hashes, vnodeHash(id, i))
			t.owners = append(t.owners, id)
		}
	}
	sort.Sort(byHash{t})
	r.cur.Store(t)
}

// byHash sorts the parallel hash/owner slices by hash. Equal hashes
// (astronomically unlikely) tie-break by owner so the table is
// deterministic across replicas.
type byHash struct{ t *table }

func (b byHash) Len() int { return len(b.t.hashes) }
func (b byHash) Less(i, j int) bool {
	if b.t.hashes[i] != b.t.hashes[j] {
		return b.t.hashes[i] < b.t.hashes[j]
	}
	return b.t.owners[i] < b.t.owners[j]
}
func (b byHash) Swap(i, j int) {
	b.t.hashes[i], b.t.hashes[j] = b.t.hashes[j], b.t.hashes[i]
	b.t.owners[i], b.t.owners[j] = b.t.owners[j], b.t.owners[i]
}

// Lookup returns the member owning key, or "" for an empty ring. This is
// the client-side routing decision for every model fetch and telemetry
// upload: one atomic table load, an inline hash, one binary search.
//
//apollo:hotpath
func (r *Ring) Lookup(key string) string {
	t := r.cur.Load()
	if len(t.hashes) == 0 {
		return ""
	}
	return t.owners[t.search(keyHash(key))]
}

// LookupN appends to dst the first n distinct members clockwise from
// key's position — the failover preference order: dst[0] is the owner,
// dst[1] the replica a client should retry on, and so on. It returns the
// extended slice (fewer than n entries when the ring is smaller).
// Passing a reused dst[:0] keeps the call allocation-free.
func (r *Ring) LookupN(key string, n int, dst []string) []string {
	t := r.cur.Load()
	if len(t.hashes) == 0 || n <= 0 {
		return dst
	}
	if n > len(t.members) {
		n = len(t.members)
	}
	start := t.search(keyHash(key))
	for i := 0; i < len(t.hashes) && n > 0; i++ {
		owner := t.owners[(start+i)%len(t.hashes)]
		seen := false
		for _, d := range dst {
			if d == owner {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		dst = append(dst, owner)
		n--
	}
	return dst
}

// search returns the index of the first vnode at or clockwise after h.
func (t *table) search(h uint64) int {
	// Hand-rolled binary search: sort.Search takes a func value, which
	// the hotpath analyzer (correctly) refuses to follow alloc-free.
	lo, hi := 0, len(t.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.hashes) {
		return 0 // wrap: key hashes past the last vnode
	}
	return lo
}

// Ownership returns each member's share of the hash space, summing to 1
// (empty map for an empty ring). The fleet metrics exporter turns this
// into the per-replica ring-ownership gauge.
func (r *Ring) Ownership() map[string]float64 {
	t := r.cur.Load()
	if len(t.hashes) == 0 {
		return map[string]float64{}
	}
	own := make(map[string]float64, len(t.members))
	for i, h := range t.hashes {
		// The arc owned by vnode i stretches from the previous vnode
		// (exclusive) to h (inclusive); the first vnode also owns the
		// wraparound arc past the last.
		var arc uint64
		if i == 0 {
			arc = h + (^uint64(0) - t.hashes[len(t.hashes)-1])
		} else {
			arc = h - t.hashes[i-1]
		}
		own[t.owners[i]] += float64(arc)
	}
	total := float64(^uint64(0))
	for id := range own {
		own[id] /= total
	}
	return own
}

// fnv-1a 64-bit constants.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// keyHash is FNV-1a over the key bytes, inlined so the hotpath lookup
// neither allocates a hash.Hash nor copies the key.
//
//apollo:hotpath
func keyHash(key string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// vnodeHash names virtual node i of member id. The separator keeps
// ("ab", 1) and ("a", 11)-style collisions apart.
func vnodeHash(id string, i int) uint64 {
	h := uint64(offset64)
	for j := 0; j < len(id); j++ {
		h ^= uint64(id[j])
		h *= prime64
	}
	h ^= uint64('#')
	h *= prime64
	for ; ; i /= 10 {
		h ^= uint64('0' + i%10)
		h *= prime64
		if i < 10 {
			break
		}
	}
	return h
}
