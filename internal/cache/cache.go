// Package cache provides the size-bounded, concurrency-safe block cache
// behind the IDX streaming stack ("the caching-enabled framework also
// allows users to extract any rectangular subsets of the input data
// progressively"). Keys are block object names; values are immutable
// block payloads (Block) shared by all readers and owned by the garbage
// collector, so a cache hit copies nothing and nothing is ever handed
// back. A Tiered cache layers request coalescing and an optional disk
// tier on top of the in-memory tier, which evicts by GreedyDual.
package cache

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
)

// Stats reports cache effectiveness counters.
type Stats struct {
	// Hits and Misses count lookup outcomes. For a Tiered cache, Hits
	// counts memory-tier hits and Misses counts keys absent from every
	// tier.
	Hits, Misses int64
	// Evictions counts entries displaced by the size bound.
	Evictions int64
	// AdmissionRejects is always 0: every fill is admitted. The field
	// stays only because bench/e2e reads it, until ROADMAP item 14
	// rewires that benchmark.
	AdmissionRejects int64
	// Coalesced counts fills that piggybacked on another caller's
	// in-flight fetch of the same key instead of issuing their own.
	Coalesced int64
	// DiskHits counts lookups served from the disk tier.
	DiskHits int64
	// Entries is the current memory-tier entry count.
	Entries int
	// Bytes is the current memory-tier payload footprint.
	Bytes int64
	// DiskEntries and DiskBytes describe the disk tier, when enabled.
	DiskEntries int
	DiskBytes   int64
}

// HitRate returns the fraction of lookups served by any tier, or 0
// before any traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.DiskHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits) / float64(total)
}

// memTier is Tiered's memory tier, a block store with a maximum total
// payload size that evicts by GreedyDual (Young 1994; Cao & Irani
// 1997), safe for concurrent use. Each entry carries a weight, and its
// priority is clock + weight, reset on every touch (insert or hit);
// eviction removes the minimum-priority entry and advances clock to
// its priority. A heavy entry thus outlives light ones touched at the
// same time, yet ages out once enough lighter evictions push clock
// past it; with equal weights the order is exactly LRU. lookup returns
// the resident Block itself (shared, read-only); PutBlock stores the
// Block it is given without copying.
type memTier struct {
	mu       sync.Mutex
	maxBytes int64
	items    map[string]*entry
	heap     entryHeap
	// clock is the priority of the last eviction, less any re-base.
	// Priorities are in units of weightOne and never fall below clock.
	clock uint64
	// seq numbers touches, so equal priorities evict oldest first.
	seq uint64
	// weigh returns a key's weight in (0, 1]; unset weighs every key 1.
	weigh atomic.Pointer[func(key string) float64]
	// onEvict observes size-bound evictions (disk spill). It is called
	// outside the cache lock.
	onEvict func(key string, blk *Block)

	evicts  atomic.Int64
	entries atomic.Int64
	bytes   atomic.Int64
}

// weightOne is the priority units of weight 1. Weights are kept as
// integers so priorities compare exactly; the finest weight a key can
// carry is 1/weightOne.
const weightOne = 1 << 32

// rebaseAt is the clock past which every priority is shifted down by
// clock. Priorities never exceed clock + weightOne, so they stay far
// from overflow however long the tier runs, and shifting all of them
// by one amount keeps their order.
const rebaseAt = 1 << 62

type entry struct {
	key    string
	blk    *Block
	weight uint64 // priority units a touch adds to clock
	prio   uint64
	seq    uint64
	index  int // position in heap
}

// entryHeap is a min-heap on (prio, seq).
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// newMemTier bounds the tier to maxBytes of payload (<= 0 stores
// nothing).
func newMemTier(maxBytes int64) *memTier {
	return &memTier{maxBytes: maxBytes, items: make(map[string]*entry)}
}

// weightUnits converts a weight to priority units, clamped to
// [1/weightOne, 1].
func weightUnits(w float64) uint64 {
	if !(w < 1) {
		return weightOne
	}
	return uint64(max(math.Ldexp(w, 32), 1))
}

// touch resets e's priority to clock + its weight. Caller holds mu.
func (c *memTier) touch(e *entry) {
	c.seq++
	e.prio, e.seq = c.clock+e.weight, c.seq
}

// lookup returns the resident Block for key and resets its priority.
// Hits and misses are counted by Tiered, not here.
func (c *memTier) lookup(key string) (*Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.touch(e)
	heap.Fix(&c.heap, e.index)
	return e.blk, true
}

// PutBlock inserts blk under key, replacing any previous entry, and
// evicts the lowest-priority entries until it fits. A disabled tier or
// an oversized payload stores nothing.
func (c *memTier) PutBlock(key string, blk *Block) {
	size := int64(blk.Len())
	if c.maxBytes <= 0 || size > c.maxBytes {
		return
	}
	e := &entry{key: key, blk: blk, weight: weightOne}
	if weigh := c.weigh.Load(); weigh != nil {
		e.weight = weightUnits((*weigh)(key))
	}
	var evicted []*entry
	c.mu.Lock()
	if old, ok := c.items[key]; ok {
		c.remove(old)
	}
	for c.bytes.Load()+size > c.maxBytes {
		victim := heap.Pop(&c.heap).(*entry)
		c.unlink(victim)
		c.clock = victim.prio
		c.evicts.Add(1)
		if c.onEvict != nil {
			evicted = append(evicted, victim)
		}
	}
	if c.clock >= rebaseAt {
		for _, r := range c.heap {
			r.prio -= c.clock
		}
		c.clock = 0
	}
	c.touch(e)
	heap.Push(&c.heap, e)
	c.items[key] = e
	c.entries.Add(1)
	c.bytes.Add(size)
	c.mu.Unlock()
	for _, v := range evicted {
		c.onEvict(v.key, v.blk)
	}
}

// remove takes e out of the heap and the index. Caller holds mu.
func (c *memTier) remove(e *entry) {
	heap.Remove(&c.heap, e.index)
	c.unlink(e)
}

// unlink takes e, already out of the heap, out of the index and the
// byte count. Caller holds mu.
func (c *memTier) unlink(e *entry) {
	delete(c.items, e.key)
	c.entries.Add(-1)
	c.bytes.Add(-int64(e.blk.Len()))
}

// Remove drops key from the cache if present (invalidation). The
// eviction hook is not called: invalidated data must not be spilled.
func (c *memTier) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.remove(e)
	}
}

// Clear empties the cache, keeping counters.
func (c *memTier) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = make(map[string]*entry)
	c.heap = nil
	c.clock = 0
	c.entries.Store(0)
	c.bytes.Store(0)
}
