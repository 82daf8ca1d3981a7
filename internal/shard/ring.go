// Package shard federates block reads and writes across multiple
// storage.Store nodes: a consistent-hash ring with virtual nodes places
// every key on R replicas, and Router — itself a storage.Store — fans
// reads out with hedging and failover, so it drops transparently under
// storage.Instrumented, storage.NewIDXBackend, and the IDX fetch pool. This is the paper's Seal Storage + cloud deployment
// story made horizontal: node count becomes the read-throughput knob
// (DataFed-style federated storage), and hedged reads tame the p99 tail
// of any single node.
package shard

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-node vnode count: enough that key load
// stays within a few percent of uniform across nodes, small enough that
// ring construction and lookup stay trivially cheap.
const DefaultVirtualNodes = 128

// vnode is one virtual position a node occupies on the ring.
type vnode struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Placement is a pure
// function of the membership set: two rings built from the same node
// names (in any insertion order) and the same vnode count place every
// key identically, which is what lets independent routers agree without
// coordination. Membership changes move only the keys owned by the
// affected node (~K/N of them) — the consistent-hashing guarantee the
// rebalance tests pin.
//
// Ring is not safe for concurrent mutation; Router treats it as
// immutable after construction.
type Ring struct {
	virtualNodes int
	vnodes       []vnode // sorted by hash
	nodes        map[string]struct{}
}

// NewRing returns an empty ring with the given vnodes per node
// (DefaultVirtualNodes if <= 0).
func NewRing(virtualNodes int) *Ring {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	return &Ring{virtualNodes: virtualNodes, nodes: make(map[string]struct{})}
}

// hashKey is the stable 64-bit hash placement is built on: FNV-1a with
// a MurmurHash3-style finalizer. The combination is deliberate on both
// counts — the hash must not change across process restarts or Go
// releases (maphash would), because block keys written by one router
// must be findable by every other; and plain FNV-1a of short,
// near-identical block keys clusters badly on the ring, so the
// finalizer's avalanche restores uniform arc lengths.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts node's vnodes into the ring. Adding a present node is a
// no-op.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.virtualNodes; i++ {
		r.vnodes = append(r.vnodes, vnode{hash: hashKey(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
}

// Len reports the number of nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the sorted node names.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Replicas returns the n distinct nodes responsible for key, in
// preference order: the first vnode at or clockwise of hash(key) names
// the primary, and the walk continues clockwise collecting distinct
// nodes. Fewer than n nodes on the ring returns them all.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.vnodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.vnodes) && len(out) < n; i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if _, dup := seen[v.node]; dup {
			continue
		}
		seen[v.node] = struct{}{}
		out = append(out, v.node)
	}
	return out
}
