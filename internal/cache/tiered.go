package cache

import (
	"context"
	"sync/atomic"

	"nsdfgo/internal/telemetry"
)

// Options configures a Tiered cache.
type Options struct {
	// MemBytes bounds the in-memory tier's payload footprint; <= 0
	// disables the memory tier.
	MemBytes int64
	// DiskDir, when non-empty, enables a disk tier rooted at that
	// directory (wiped at startup). Memory evictions spill there and
	// disk hits are promoted back into memory.
	DiskDir string
	// DiskBytes bounds the disk tier's payload footprint.
	DiskBytes int64
}

// Outcome reports how GetOrFill satisfied a request.
type Outcome int

const (
	// OutcomeFilled means this caller ran the fill (backend fetch).
	OutcomeFilled Outcome = iota
	// OutcomeHit means the memory tier had the block.
	OutcomeHit
	// OutcomeDiskHit means the disk tier had the block.
	OutcomeDiskHit
	// OutcomeCoalesced means the caller piggybacked on another caller's
	// in-flight fill of the same key.
	OutcomeCoalesced
)

// Tiered is the full block cache: an in-memory tier that evicts by
// GreedyDual, an optional disk tier below it, and singleflight request
// coalescing so N concurrent misses on one key cost one backend fetch.
// It satisfies idx.BlockCache. A Tiered with no
// memory bound and no disk dir is fully disabled: lookups miss without
// counting and fills run uncoalesced, keeping "no cache" sweep
// configurations uniform.
type Tiered struct {
	mem   *memTier
	disk  *diskTier
	fills *fillGroup

	hits      atomic.Int64
	misses    atomic.Int64
	diskHits  atomic.Int64
	coalesced atomic.Int64
}

// NewMemTiered builds a memory-only tiered cache (coalescing, no disk
// tier); unlike NewTiered it cannot fail. memBytes <= 0 disables
// caching.
func NewMemTiered(memBytes int64) *Tiered {
	return &Tiered{mem: newMemTier(memBytes), fills: newFillGroup()}
}

// NewTiered builds a tiered cache from opts. It fails only when the
// disk tier directory cannot be prepared.
func NewTiered(opts Options) (*Tiered, error) {
	t := NewMemTiered(opts.MemBytes)
	if opts.DiskDir != "" && opts.DiskBytes > 0 {
		disk, err := newDiskTier(opts.DiskDir, opts.DiskBytes)
		if err != nil {
			return nil, err
		}
		t.disk = disk
		t.mem.onEvict = func(key string, blk *Block) {
			disk.put(key, blk.Bytes())
		}
	}
	return t, nil
}

// SetWeigher sets the weight w(key) in (0, 1] by which a key's
// eviction priority stands above the memory tier's clock after each
// touch (see memTier): a key of weight 1 outlives keys of weight 1/8
// touched at the same time. Resident entries keep the weight they
// entered with; with no weigher every key weighs 1 and eviction is
// LRU. idx.Dataset.SetCache binds the share of the domain a block
// covers.
func (t *Tiered) SetWeigher(w func(key string) float64) { t.mem.weigh.Store(&w) }

// enabled reports whether any tier can hold data.
func (t *Tiered) enabled() bool {
	return t.mem.maxBytes > 0 || t.disk != nil
}

// lookupTiers checks memory then disk, counting the hit and promoting
// disk hits into memory with their weight.
func (t *Tiered) lookupTiers(key string) (*Block, Outcome, bool) {
	if blk, ok := t.mem.lookup(key); ok {
		t.hits.Add(1)
		return blk, OutcomeHit, true
	}
	if t.disk != nil {
		if data, ok := t.disk.get(key); ok {
			t.diskHits.Add(1)
			blk := NewBlock(data)
			t.mem.PutBlock(key, blk)
			return blk, OutcomeDiskHit, true
		}
	}
	return nil, OutcomeFilled, false
}

// Get returns the cached Block for key from any tier. A fully disabled
// cache returns (nil, false) without counting a miss.
func (t *Tiered) Get(key string) (*Block, bool) {
	if !t.enabled() {
		return nil, false
	}
	blk, _, ok := t.lookupTiers(key)
	if !ok {
		t.misses.Add(1)
	}
	return blk, ok
}

// Peek is Get without the miss accounting. The idx read paths probe
// every block in an assembly pre-pass and then route the misses through
// GetOrFill, which books the authoritative miss when a fill actually
// runs; a counted Get in the pre-pass would double-count every cold
// block. Hits (memory or disk) still count — they are real serves.
func (t *Tiered) Peek(key string) (*Block, bool) {
	if !t.enabled() {
		return nil, false
	}
	blk, _, ok := t.lookupTiers(key)
	return blk, ok
}

// Put adopts data as an immutable Block, stores it in the memory tier,
// and returns the Block (valid even when the tier cannot hold it). The
// caller must not write to data after Put.
func (t *Tiered) Put(key string, data []byte) *Block {
	blk := NewBlock(data)
	t.mem.PutBlock(key, blk)
	return blk
}

// GetOrFill returns the Block for key, running fill at most once across
// all concurrent callers of the same key: the first caller fetches,
// everyone else waits for that result (request coalescing). fill
// receives the leader's ctx; a waiter whose own ctx expires mid-fill
// returns its ctx error without cancelling the shared fetch, and a
// waiter whose leader's ctx ends mid-fill runs the fill itself.
func (t *Tiered) GetOrFill(ctx context.Context, key string, fill func(ctx context.Context) ([]byte, error)) (*Block, Outcome, error) {
	if !t.enabled() {
		// Disabled caches do not coalesce either, so "no cache" sweep
		// runs measure the raw backend.
		data, err := fill(ctx)
		if err != nil {
			return nil, OutcomeFilled, err
		}
		return NewBlock(data), OutcomeFilled, nil
	}
	if blk, outcome, ok := t.lookupTiers(key); ok {
		return blk, outcome, nil
	}
	blk, shared, err := t.fills.do(ctx, key, func() (*Block, error) {
		// Double-check as the leader: a previous fill or a writer may
		// have populated the key after our miss.
		if blk, _, ok := t.lookupTiers(key); ok {
			return blk, nil
		}
		t.misses.Add(1)
		data, err := fill(ctx)
		if err != nil {
			return nil, err
		}
		blk := NewBlock(data)
		t.mem.PutBlock(key, blk)
		return blk, nil
	})
	if err != nil {
		return nil, OutcomeFilled, err
	}
	if shared {
		t.coalesced.Add(1)
		return blk, OutcomeCoalesced, nil
	}
	return blk, OutcomeFilled, nil
}

// Remove invalidates key in every tier.
func (t *Tiered) Remove(key string) {
	t.mem.Remove(key)
	if t.disk != nil {
		t.disk.remove(key)
	}
}

// Clear empties every tier, keeping counters.
func (t *Tiered) Clear() {
	t.mem.Clear()
	if t.disk != nil {
		t.disk.clear()
	}
}

// Stats merges the tiers' counters: Hits/Misses/DiskHits/Coalesced are
// tiered-level, the rest come from the tiers themselves. Reads atomics
// only.
func (t *Tiered) Stats() Stats {
	s := Stats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		DiskHits:  t.diskHits.Load(),
		Coalesced: t.coalesced.Load(),
		Evictions: t.mem.evicts.Load(),
		Entries:   int(t.mem.entries.Load()),
		Bytes:     t.mem.bytes.Load(),
	}
	if t.disk != nil {
		s.DiskEntries = int(t.disk.entries.Load())
		s.DiskBytes = t.disk.bytes.Load()
	}
	return s
}

// Instrument registers the cache's counters with a telemetry registry,
// labelled with a cache name. Every series reads lock-free atomics, so
// scrapes never contend with the read path:
//
//	nsdf_cache_hits_total{cache}          memory-tier hits
//	nsdf_cache_misses_total{cache}        misses in every tier
//	nsdf_cache_evictions_total{cache}     memory-tier evictions
//	nsdf_cache_coalesced_total{cache}     fills shared via singleflight
//	nsdf_cache_disk_hits_total{cache}     disk-tier hits
//	nsdf_cache_entries{cache}             memory-tier entry count
//	nsdf_cache_bytes{cache}               memory-tier payload bytes
//	nsdf_cache_disk_bytes{cache}          disk-tier payload bytes
func (t *Tiered) Instrument(reg *telemetry.Registry, name string) {
	reg.CounterFunc("nsdf_cache_hits_total",
		func() float64 { return float64(t.hits.Load()) }, "cache", name)
	reg.CounterFunc("nsdf_cache_misses_total",
		func() float64 { return float64(t.misses.Load()) }, "cache", name)
	reg.CounterFunc("nsdf_cache_evictions_total",
		func() float64 { return float64(t.mem.evicts.Load()) }, "cache", name)
	reg.CounterFunc("nsdf_cache_coalesced_total",
		func() float64 { return float64(t.coalesced.Load()) }, "cache", name)
	reg.CounterFunc("nsdf_cache_disk_hits_total",
		func() float64 { return float64(t.diskHits.Load()) }, "cache", name)
	reg.GaugeFunc("nsdf_cache_entries",
		func() float64 { return float64(t.mem.entries.Load()) }, "cache", name)
	reg.GaugeFunc("nsdf_cache_bytes",
		func() float64 { return float64(t.mem.bytes.Load()) }, "cache", name)
	reg.GaugeFunc("nsdf_cache_disk_bytes",
		func() float64 {
			if t.disk == nil {
				return 0
			}
			return float64(t.disk.bytes.Load())
		}, "cache", name)
}
