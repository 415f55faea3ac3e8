package shard

import "sort"

// DefaultRingReplicas is the virtual-node count per shard a Ring uses
// when the caller passes replicas <= 0. 128 points per shard keeps the
// max/min load ratio within ~1.5x at realistic shard counts while the
// ring stays small enough to build in microseconds.
const DefaultRingReplicas = 128

// Ring is a deterministic consistent-hash partition over a fixed shard
// count. Each shard owns `replicas` virtual points on a 64-bit ring and a
// key belongs to the shard whose point follows the key's hash. Unlike the
// modular Of partition, growing or shrinking a Ring by one shard moves
// only ~1/n of the keys: shard s's virtual points depend only on (s,
// replica), so the point sets of NewRing(n, r) and NewRing(n+1, r) differ
// exactly by the new shard's points, and only keys landing in the new
// points' arcs change owner.
//
// A Ring is immutable after NewRing and safe for concurrent readers, and
// fully deterministic: the same (shards, replicas) pair builds the same
// ring in every process on every platform.
type Ring struct {
	points []ringPoint // sorted by (hash, shard)
	shards int
}

// ringPoint is one virtual node: a position on the hash ring and the
// shard that owns the arc ending there.
type ringPoint struct {
	hash  uint64
	shard int
}

// ringPointHash places virtual node (shard, replica) on the ring. The
// input stream keeps (shard, replica) pairs distinct before mixing —
// replica counts are astronomically far below the odd multiplier's
// additive order — and mix is a bijection, so points collide essentially
// never; lookup tie-breaks by shard index regardless.
func ringPointHash(shard, replica int) uint64 {
	return mix(uint64(shard)*0x9e3779b97f4a7c15 + uint64(replica) + 0xd1b54a32d192ed03)
}

// NewRing builds the consistent-hash ring for `shards` shards with
// `replicas` virtual points each (DefaultRingReplicas when replicas <=
// 0). It panics if shards is not positive.
func NewRing(shards, replicas int) *Ring {
	if shards <= 0 {
		panic("shard: NewRing needs a positive shard count")
	}
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	r := &Ring{
		points: make([]ringPoint, 0, shards*replicas),
		shards: shards,
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: ringPointHash(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count the ring partitions keys across.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard owning an integer key (typically a global user
// index): the key hashes onto the ring and the first virtual point at or
// after it (wrapping) names the owner.
func (r *Ring) Owner(key uint64) int {
	h := mix(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// NewRingMap partitions `users` global user indices across `shards`
// shards with a consistent-hash Ring instead of the modular Of hash, so
// re-partitioning the same users at shards±1 reassigns only ~users/shards
// of them. Local indices preserve global order exactly as in NewMap. It
// panics if shards is not positive or users is negative.
func NewRingMap(users, shards, replicas int) *Map {
	if shards <= 0 {
		panic("shard: NewRingMap needs a positive shard count")
	}
	if users < 0 {
		panic("shard: NewRingMap needs a non-negative user count")
	}
	ring := NewRing(shards, replicas)
	m := &Map{
		shard:   make([]int, users),
		local:   make([]int, users),
		globals: make([][]int, shards),
	}
	for u := 0; u < users; u++ {
		s := ring.Owner(uint64(u))
		m.shard[u] = s
		m.local[u] = len(m.globals[s])
		m.globals[s] = append(m.globals[s], u)
	}
	return m
}
