// Package cache provides the size-bounded, concurrency-safe block cache
// behind the IDX streaming stack ("the caching-enabled framework also
// allows users to extract any rectangular subsets of the input data
// progressively"). Keys are block object names; values are immutable
// block payloads (Block) shared by all readers and owned by the garbage
// collector, so a cache hit copies nothing and nothing is ever handed
// back. A Tiered cache layers request coalescing, a TinyLFU admission
// filter, and an optional disk tier on top of the in-memory LRU.
package cache

import (
	"container/list"
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
	// AdmissionRejects counts candidates the TinyLFU filter refused to
	// admit because a resident victim was hotter.
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

// lru is Tiered's memory tier: a least-recently-used block store with a
// maximum total payload size, safe for concurrent use. lookup returns
// the resident Block itself (shared, read-only); PutBlock stores the
// Block it is given without copying.
type lru struct {
	mu       sync.Mutex
	maxBytes int64
	ll       *list.List // front = most recent
	items    map[string]*list.Element
	sketch   *freqSketch // nil = no admission filter
	// onEvict observes size-bound evictions (disk spill). It is called
	// outside the cache lock.
	onEvict func(key string, blk *Block)

	evicts  atomic.Int64
	rejects atomic.Int64
	entries atomic.Int64
	bytes   atomic.Int64
}

type entry struct {
	key string
	blk *Block
}

// newLRU bounds the tier to maxBytes of payload (<= 0 stores nothing);
// admit opts into TinyLFU admission.
func newLRU(maxBytes int64, admit bool) *lru {
	c := &lru{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
	if admit && maxBytes > 0 {
		// Size the sketch for the plausible entry count assuming 64 KiB
		// blocks; newFreqSketch rounds up and floors the width.
		c.sketch = newFreqSketch(int(maxBytes / (64 << 10)))
	}
	return c
}

// lookup returns the resident Block for key and marks it recently used.
// Hits and misses are counted by Tiered, not here.
func (c *lru) lookup(key string) (*Block, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sketch != nil {
		c.sketch.touch(key)
	}
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).blk, true
}

// PutBlock inserts blk under key, replacing any previous entry. It
// reports false when the cache is disabled, the payload is oversized,
// or the admission filter refuses the key.
func (c *lru) PutBlock(key string, blk *Block) bool {
	size := int64(blk.Len())
	if c.maxBytes <= 0 || size > c.maxBytes {
		return false
	}
	var evicted []*entry
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes.Add(size - int64(e.blk.Len()))
		e.blk = blk
		c.ll.MoveToFront(el)
		c.trim(&evicted)
	} else {
		if !c.makeRoom(key, size, &evicted) {
			c.rejects.Add(1)
			c.mu.Unlock()
			c.finishEvictions(evicted)
			return false
		}
		c.items[key] = c.ll.PushFront(&entry{key: key, blk: blk})
		c.entries.Add(1)
		c.bytes.Add(size)
	}
	c.mu.Unlock()
	c.finishEvictions(evicted)
	return true
}

// makeRoom frees space for a size-byte insertion. With an admission
// sketch, the candidate must be estimated strictly hotter than every
// victim it would displace, else the insertion is rejected (scan
// resistance: a one-pass scan cannot flush the resident hot set).
// Admission is only consulted when the insertion would actually evict.
// Caller holds mu; evicted entries are appended for post-unlock
// handling.
func (c *lru) makeRoom(key string, size int64, evicted *[]*entry) bool {
	need := c.bytes.Load() + size - c.maxBytes
	if need <= 0 {
		return true
	}
	if c.sketch != nil {
		cand := c.sketch.estimate(key)
		freed := int64(0)
		for el := c.ll.Back(); el != nil && freed < need; el = el.Prev() {
			e := el.Value.(*entry)
			if cand <= c.sketch.estimate(e.key) {
				return false
			}
			freed += int64(e.blk.Len())
		}
	}
	for c.bytes.Load()+size > c.maxBytes {
		if !c.evictOldest(evicted) {
			break
		}
	}
	return true
}

// trim evicts until the size bound holds (replacement grew an entry).
// Caller holds mu.
func (c *lru) trim(evicted *[]*entry) {
	for c.bytes.Load() > c.maxBytes {
		if !c.evictOldest(evicted) {
			break
		}
	}
}

// evictOldest removes the least recently used entry, keeping it for the
// eviction hook when there is one. Caller holds mu.
func (c *lru) evictOldest(evicted *[]*entry) bool {
	el := c.ll.Back()
	if el == nil {
		return false
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.entries.Add(-1)
	c.bytes.Add(-int64(e.blk.Len()))
	c.evicts.Add(1)
	if c.onEvict != nil {
		*evicted = append(*evicted, e)
	}
	return true
}

// finishEvictions runs the eviction hook, outside the lock so the hook
// (disk spill) cannot stall readers.
func (c *lru) finishEvictions(evicted []*entry) {
	for _, e := range evicted {
		c.onEvict(e.key, e.blk)
	}
}

// Remove drops key from the cache if present (invalidation). The
// eviction hook is not called: invalidated data must not be spilled.
func (c *lru) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.items, key)
		c.entries.Add(-1)
		c.bytes.Add(-int64(e.blk.Len()))
	}
}

// Clear empties the cache, keeping counters.
func (c *lru) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.entries.Store(0)
	c.bytes.Store(0)
}
