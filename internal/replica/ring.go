package replica

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// vnodes is how many virtual points each node claims on the ring. 128 keeps
// the per-node share within a few percent of even for small clusters while
// the whole ring still builds in microseconds. Every router must use the
// same count, or two routers over one node set place keys differently.
const vnodes = 128

// Ring is a consistent-hash ring over node base URLs. Keys (we use
// "{namespace}/{dataset}") map to the first virtual node clockwise from the
// key's hash; adding or removing a node only moves the keys that hashed into
// its arcs, so a cluster resize does not reshuffle every dataset. Immutable
// after NewRing, therefore safe for concurrent readers.
type Ring struct {
	nodes []string
	slots []ringSlot // sorted by hash
}

type ringSlot struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given nodes. Node order does not matter:
// placement depends only on the node names, so every router over the same
// node set agrees on every key.
func NewRing(nodes []string) *Ring {
	r := &Ring{nodes: append([]string(nil), nodes...)}
	r.slots = make([]ringSlot, 0, len(nodes)*vnodes)
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.slots = append(r.slots, ringSlot{hash: fnv64(n + "#" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(r.slots, func(a, b int) bool {
		if r.slots[a].hash != r.slots[b].hash {
			return r.slots[a].hash < r.slots[b].hash
		}
		// A full 64-bit hash collision between distinct vnode labels is
		// vanishingly rare; break it by node name so the order — and thus
		// every router's routing table — is still deterministic.
		return r.nodes[r.slots[a].node] < r.nodes[r.slots[b].node]
	})
	return r
}

// Nodes returns the ring's node set in construction order.
func (r *Ring) Nodes() []string { return r.nodes }

// Successors returns every node in ring order starting at key's owner, each
// node once: the failover order for reads when the owner is down.
func (r *Ring) Successors(key string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i, start := 0, r.find(key); len(out) < len(r.nodes) && i < len(r.slots); i++ {
		s := r.slots[(start+i)%len(r.slots)]
		if !seen[s.node] {
			seen[s.node] = true
			out = append(out, r.nodes[s.node])
		}
	}
	return out
}

// find returns the index of the first slot at or clockwise after key's hash.
func (r *Ring) find(key string) int {
	h := fnv64(key)
	i := sort.Search(len(r.slots), func(i int) bool { return r.slots[i].hash >= h })
	if i == len(r.slots) {
		i = 0 // wrap: the lowest slot owns the top arc
	}
	return i
}

// fnv64 hashes s with FNV-1a and then finalizes with a murmur-style mixer.
// Raw FNV-1a barely avalanches trailing-byte differences, so the vnode
// labels "node#0".."node#127" would form contiguous runs on the ring and one
// node could capture almost the whole keyspace; the finalizer spreads them.
func fnv64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the 64-bit avalanche finalizer from MurmurHash3.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
