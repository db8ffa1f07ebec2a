// Package shard implements the consistent-hash router that spreads the
// RKV key space over independent replica groups (one Paxos group per
// shard). The ring is a fixed, sorted slice of 64-bit points — there is
// no map iteration anywhere on the lookup or rebuild paths, so routing
// is deterministic and safe for the simulator's byte-identical
// serial-vs-parallel contract. Each shard owns VNodes points on the
// ring; removing a shard removes only its points, so only ~1/N of the
// key space remaps onto the survivors (the property the scale-out
// failover path relies on).
package shard

import "sort"

// DefaultVNodes is the per-shard virtual-node count. 128 points per
// shard keeps the max/mean arc-length ratio under ~1.25 for up to a few
// dozen shards, which is plenty for the bench sweeps.
const DefaultVNodes = 128

type point struct {
	hash  uint64
	shard int
	vnode int
}

// Ring is a consistent-hash ring over integer shard IDs [0, shards).
type Ring struct {
	points []point
	shards int // original shard count (IDs), not live count
	live   []bool
	nLive  int
}

// New builds a ring with the given shard count and virtual nodes per
// shard (vnodes ≤ 0 uses DefaultVNodes). Panics on shards < 1.
func New(shards, vnodes int) *Ring {
	if shards < 1 {
		panic("shard: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		points: make([]point, 0, shards*vnodes),
		shards: shards,
		live:   make([]bool, shards),
		nLive:  shards,
	}
	for s := 0; s < shards; s++ {
		r.live[s] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(s, v), shard: s, vnode: v})
		}
	}
	sortPoints(r.points)
	return r
}

// sortPoints orders by hash with a (shard, vnode) tie-break so the ring
// layout is a pure function of its inputs.
func sortPoints(pts []point) {
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.vnode < b.vnode
	})
}

// Shards returns the number of shards still on the ring.
func (r *Ring) Shards() int { return r.nLive }

// Live reports whether shard s still owns points on the ring.
func (r *Ring) Live(s int) bool { return s >= 0 && s < r.shards && r.live[s] }

// Lookup returns the shard owning key: the first point clockwise from
// the key's hash.
func (r *Ring) Lookup(key []byte) int { return r.LookupHash(hash(key)) }

// LookupHash routes a pre-computed key hash.
func (r *Ring) LookupHash(h uint64) int {
	if len(r.points) == 0 {
		panic("shard: lookup on empty ring")
	}
	// First point with hash >= h, wrapping to the start of the ring.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Remove deletes shard s's points: keys it owned redistribute to the
// clockwise successors (≈1/N of the key space), every other key keeps
// its owner. Removing an already-removed shard is a no-op; removing the
// last shard panics.
func (r *Ring) Remove(s int) {
	if s < 0 || s >= r.shards || !r.live[s] {
		return
	}
	if r.nLive == 1 {
		panic("shard: cannot remove the last shard")
	}
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != s {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.live[s] = false
	r.nLive--
}

// hash is the key hash: FNV-1a 64 with a splitmix finalizer so short
// sequential keys still spread across the whole ring.
func hash(key []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return mix(h)
}

// pointHash places virtual node v of shard s on the ring.
func pointHash(s, v int) uint64 {
	return mix(uint64(s+1)*0x9E3779B97F4A7C15 + uint64(v)*0xBF58476D1CE4E5B9)
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
