package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the number of virtual nodes each member contributes to the
// ring. More vnodes smooth the load split and shrink the key movement
// caused by a join/leave toward the ideal 1/n at the cost of a larger
// sorted point set; 64 keeps lookups cheap (binary search over a few
// hundred points for any realistic fleet) while holding the split
// within a few percent of even.
const vnodes = 64

// ringPoint is one virtual node: a position on the hash circle owned
// by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over named members (fleet workers).
// Lookups walk clockwise from the key's hash, so adding or removing
// one member only moves the keys that hashed into its arcs — bounded
// key movement is the property that keeps the response cache and any
// worker-local warmth useful across fleet membership changes. Ring is
// not safe for concurrent use; the router guards it with its own lock.
type Ring struct {
	points  []ringPoint
	members map[string]bool
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{members: make(map[string]bool)}
}

// hash64 positions a string on the ring circle: FNV-1a (dependency-free
// and stable across processes — the ring must agree with itself only,
// but stability keeps tests deterministic) pushed through a
// splitmix64-style finalizer. Raw FNV clumps badly on the short,
// sequential vnode names ("w2#17"), skewing member arcs several-fold;
// the mixer restores avalanche so the load split stays near even.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member's virtual nodes. Adding an existing member is a
// no-op.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for v := 0; v < vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:   hash64(fmt.Sprintf("%s#%d", member, v)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member's virtual nodes. Removing an absent member
// is a no-op.
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Ordered returns up to n distinct members in ring order starting at
// key's position — the per-key preference list. The first entry is the
// key's primary owner; subsequent entries are the natural hedge and
// failover targets, and they too are stable under unrelated membership
// changes. Returns nil for an empty ring.
func (r *Ring) Ordered(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for walked := 0; walked < len(r.points) && len(out) < n; walked++ {
		p := r.points[(i+walked)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
