// Package idx implements the IDX multiresolution data format at the heart
// of OpenVisus and the NSDF dashboard: samples of a regular grid are
// reordered along the hierarchical Z-order (HZ) curve, split into
// fixed-size blocks, independently compressed, and stored as objects in
// any Backend. Because coarse resolution levels occupy a prefix of the HZ
// ordering, a reader can progressively refine a region of interest by
// fetching only the blocks that intersect the requested box and level —
// the "storage-oblivious API" of the tutorial paper (§III-A).
//
// Every read and write entry point is context-first: the context bounds
// all backend I/O the call performs, and the fetch and write worker
// pools abort in-flight block plans the moment it is cancelled. This is
// what keeps a slow or hung wide-area object store from pinning the
// serving stack above.
package idx

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/compress"
	"nsdfgo/internal/hz"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/telemetry/trace"
)

// Dataset is an IDX dataset bound to a Backend.
type Dataset struct {
	// Meta is the dataset descriptor.
	Meta Meta

	be               Backend
	cache            BlockCache
	fillCache        FillerCache
	parallelism      int
	writeParallelism int
	pressure         func() float64
	tel              *dsMetrics
	name             string

	// keyMu guards keyCache, the lazily built per-(field,timestep) table
	// of block object names (see blockKeys).
	keyMu    sync.Mutex
	keyCache map[keyCacheID][]string
}

// BlockCache is an optional block-level cache consulted before the
// Backend on reads ("the caching-enabled framework"). The cache package
// provides the implementations (cache.LRU, cache.Tiered). Blocks are
// ref-counted shared memory: Get hands out the resident payload without
// copying, and Put adopts the decode buffer instead of copying it.
type BlockCache interface {
	// Get returns the cached block, if present. The Block carries one
	// reference owned by the caller, who must Release it after use and
	// treat Bytes as read-only.
	Get(key string) (*cache.Block, bool)
	// Put adopts data as an immutable cached block and returns it with
	// one caller reference (valid even when the cache declines the
	// entry). The caller must not write to data after Put.
	Put(key string, data []byte) *cache.Block
}

// FillerCache is a BlockCache that can also coalesce concurrent fills
// of one key (cache.Tiered). When the attached cache implements it, the
// read paths route misses through GetOrFill, so N concurrent readers of
// the same uncached block share a single backend fetch instead of
// issuing a thundering herd against the object store.
type FillerCache interface {
	BlockCache
	// GetOrFill returns the block for key, running fill at most once
	// across concurrent callers. See cache.Tiered.GetOrFill.
	GetOrFill(ctx context.Context, key string, fill func(ctx context.Context) ([]byte, error)) (*cache.Block, cache.Outcome, error)
}

// cacheRemover is the optional invalidation face of a BlockCache; the
// write paths use it to purge every tier before refreshing an entry.
type cacheRemover interface {
	Remove(key string)
}

// blockPeeker is the optional uncounted-probe face of a BlockCache
// (cache.Tiered.Peek). The read paths probe every block in an assembly
// pre-pass before routing the misses through GetOrFill, which books the
// authoritative miss — so the pre-pass must not count one too, or every
// cold block would register two misses.
type blockPeeker interface {
	Peek(key string) (*cache.Block, bool)
}

// cachePeek probes the attached cache without miss accounting when the
// cache supports it, falling back to a counted Get.
func (d *Dataset) cachePeek(key string) (*cache.Block, bool) {
	if p, ok := d.cache.(blockPeeker); ok {
		return p.Peek(key)
	}
	return d.cache.Get(key)
}

// Create initialises a new dataset in the backend by writing its
// descriptor. ctx bounds the backend I/O. Creating over an existing
// dataset first removes any blocks left under BlockPrefix — otherwise a
// smaller or sparser re-creation could silently serve the previous
// dataset's samples. Backends that cannot delete (no Deleter
// implementation) refuse to create over existing blocks instead.
func Create(ctx context.Context, be Backend, meta Meta) (*Dataset, error) {
	stale, err := be.List(ctx, BlockPrefix)
	if err != nil {
		return nil, fmt.Errorf("idx: scan for stale blocks: %w", err)
	}
	if len(stale) > 0 {
		del, ok := be.(Deleter)
		if !ok {
			return nil, fmt.Errorf("idx: backend holds %d stale blocks under %q and cannot delete them; use a fresh prefix or backend", len(stale), BlockPrefix)
		}
		for _, name := range stale {
			if err := del.Delete(ctx, name); err != nil {
				return nil, fmt.Errorf("idx: delete stale block %q: %w", name, err)
			}
		}
	}
	text, err := meta.MarshalText()
	if err != nil {
		return nil, err
	}
	if err := be.Put(ctx, MetaObjectName, text); err != nil {
		return nil, fmt.Errorf("idx: write descriptor: %w", err)
	}
	return &Dataset{Meta: meta, be: be}, nil
}

// Open loads an existing dataset's descriptor from the backend.
func Open(ctx context.Context, be Backend) (*Dataset, error) {
	text, err := be.Get(ctx, MetaObjectName)
	if err != nil {
		return nil, fmt.Errorf("idx: read descriptor: %w", err)
	}
	var meta Meta
	if err := meta.UnmarshalText(text); err != nil {
		return nil, err
	}
	return &Dataset{Meta: meta, be: be}, nil
}

// SetCache attaches a block cache used by subsequent reads. Caches that
// also implement FillerCache get misses routed through GetOrFill
// (request coalescing).
func (d *Dataset) SetCache(c BlockCache) {
	d.cache = c
	d.fillCache, _ = c.(FillerCache)
}

// SetFetchParallelism bounds how many block fetches a single ReadBox may
// issue concurrently against the backend. 1 (the default) fetches
// serially; higher values hide round-trip latency on remote object
// stores. The backend must be safe for concurrent use (all of this
// repository's backends are).
func (d *Dataset) SetFetchParallelism(n int) {
	if n < 1 {
		n = 1
	}
	d.parallelism = n
}

// SetFetchPressure attaches a load-pressure source (such as
// admission.Controller.Pressure) consulted per read: at pressure 0 the
// configured fetch parallelism applies unchanged, and as pressure
// approaches 1 each read's fan-out contracts toward a single worker.
// This is the backpressure hook that keeps an admission-bounded server
// from multiplying every admitted request into N concurrent backend
// fetches while the tier is already saturated. fn must be safe for
// concurrent use; nil restores unconditional parallelism. Call it at
// setup time, alongside SetFetchParallelism.
func (d *Dataset) SetFetchPressure(fn func() float64) {
	d.pressure = fn
}

func (d *Dataset) fetchParallelism() int {
	n := d.parallelism
	if n < 1 {
		n = 1
	}
	if d.pressure != nil && n > 1 {
		p := d.pressure()
		if p > 1 {
			p = 1
		}
		if p > 0 {
			n -= int(p*float64(n-1) + 0.5)
			if n < 1 {
				n = 1
			}
		}
	}
	return n
}

// SetWriteParallelism bounds how many blocks WriteGrid and WriteVolume
// encode and store concurrently. Values below 1 restore the default,
// which is runtime.GOMAXPROCS(0) — block encoding is CPU-bound, so more
// workers than cores only adds contention. The backend must be safe for
// concurrent use.
func (d *Dataset) SetWriteParallelism(n int) {
	if n < 1 {
		n = 0
	}
	d.writeParallelism = n
}

// writeWorkers resolves the effective write worker count for a job of
// numBlocks blocks.
func (d *Dataset) writeWorkers(numBlocks int) int {
	workers := d.writeParallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numBlocks {
		workers = numBlocks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// canceled reports whether err carries a context cancellation or
// deadline expiry, directly or wrapped.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// readErr books a failed read: cancellations increment the
// nsdf_idx_reads_cancelled_total series so operators can see clients
// abandoning slow reads.
func (d *Dataset) readErr(err error) error {
	if canceled(err) {
		d.recordCancelledRead()
	}
	return err
}

// fetchDecode gets one block from the backend and decodes it — the raw
// fetch under every cache layer. It returns the decoded payload and the
// compressed size. sc, when non-nil, accumulates the fetch and decode
// stage times (and, when the request is traced, records a per-block
// storage.get span).
func (d *Dataset) fetchDecode(ctx context.Context, key string, b int, codec compress.Codec, rawBlockLen int, sc *stageClock) ([]byte, int64, error) {
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	enc, err := d.be.Get(ctx, key)
	var t1 time.Time
	if sc != nil {
		t1 = time.Now()
		sc.fetchNS.Add(int64(t1.Sub(t0)))
		if sc.traced {
			trace.Record(ctx, "storage.get", t0, t1,
				trace.Str("dataset", d.name),
				trace.Int("block", int64(b)),
				trace.Int("bytes", int64(len(enc))))
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("idx: block %d: %w", b, err)
	}
	raw, err := codec.Decode(enc, rawBlockLen)
	if sc != nil {
		sc.decodeNS.Add(int64(time.Since(t1)))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("idx: decode block %d: %w", b, err)
	}
	return raw, int64(len(enc)), nil
}

// fetchBlockKey returns one block as a ref-counted cache Block (the
// caller must Release it). Misses go through the cache's GetOrFill when
// available, so concurrent fetches of the same key coalesce into one
// backend Get. encLen is the compressed bytes this call actually
// fetched — 0 when the block was served from cache or from another
// caller's in-flight fetch. cached reports a cache-tier hit.
func (d *Dataset) fetchBlockKey(ctx context.Context, key string, b int, codec compress.Codec, rawBlockLen int, sc *stageClock) (blk *cache.Block, encLen int64, cached bool, err error) {
	if d.fillCache != nil {
		var fetched int64
		blk, outcome, err := d.fillCache.GetOrFill(ctx, key, func(ctx context.Context) ([]byte, error) {
			raw, n, err := d.fetchDecode(ctx, key, b, codec, rawBlockLen, sc)
			fetched = n
			return raw, err
		})
		if err != nil {
			return nil, 0, false, err
		}
		hit := outcome == cache.OutcomeHit || outcome == cache.OutcomeDiskHit
		return blk, fetched, hit, nil
	}
	raw, n, err := d.fetchDecode(ctx, key, b, codec, rawBlockLen, sc)
	if err != nil {
		return nil, 0, false, err
	}
	if d.cache != nil {
		return d.cache.Put(key, raw), n, false, nil
	}
	return cache.NewBlock(raw), n, false, nil
}

// Backend returns the dataset's backend.
func (d *Dataset) Backend() Backend { return d.be }

// BlockPrefix is the object-name prefix under which every field's blocks
// are stored; Create clears it when re-creating over an old dataset.
const BlockPrefix = "fields/"

// BlockKey returns the object name of one block.
func (d *Dataset) BlockKey(field string, t, block int) string {
	return fmt.Sprintf(BlockPrefix+"%s/t%04d/b%08d.bin", field, t, block)
}

// checkFieldTime validates a field/timestep pair and returns the field.
func (d *Dataset) checkFieldTime(field string, t int) (Field, error) {
	f, err := d.Meta.Field(field)
	if err != nil {
		return Field{}, err
	}
	if t < 0 || t >= d.Meta.Timesteps {
		return Field{}, fmt.Errorf("idx: timestep %d outside [0,%d)", t, d.Meta.Timesteps)
	}
	return f, nil
}

// WriteGrid stores a full-resolution 2D grid as timestep t of the named
// field, producing every block of the HZ decomposition. The grid must
// match the dataset's logical dimensions. Cancelling ctx aborts the
// write worker pool at its next block claim; already-stored blocks are
// left behind (block writes are not transactional).
func (d *Dataset) WriteGrid(ctx context.Context, field string, t int, g *raster.Grid) error {
	f, err := d.checkFieldTime(field, t)
	if err != nil {
		return err
	}
	if len(d.Meta.Dims) != 2 {
		return fmt.Errorf("idx: WriteGrid requires a 2D dataset; this one has %d dims", len(d.Meta.Dims))
	}
	if g.W != d.Meta.Dims[0] || g.H != d.Meta.Dims[1] {
		return fmt.Errorf("idx: grid %dx%d does not match dataset %dx%d", g.W, g.H, d.Meta.Dims[0], d.Meta.Dims[1])
	}
	codec, err := compress.Lookup(f.Codec)
	if err != nil {
		return err
	}
	mask := d.Meta.Bits
	blockSamples := d.Meta.BlockSamples()
	numBlocks := d.Meta.NumBlocks()
	sz := f.Type.Size()
	w, h := g.W, g.H

	start := time.Now()
	defer func() {
		if d.tel != nil {
			d.tel.writeSeconds.ObserveSince(start)
		}
	}()
	ctx, span := trace.Start(ctx, "idx.write",
		trace.Str("dataset", d.name),
		trace.Str("field", field),
		trace.Int("blocks", int64(numBlocks)))
	defer span.End()
	sc := d.newStageClock(span != nil)

	// Plan: the full-resolution grid as per-block tiles. Each tile row
	// scatters a strided span of the row-major grid into its block.
	var planStart time.Time
	if sc != nil {
		planStart = time.Now()
	}
	plan, spans := d.planTiles(hz.RunQuery{NX: w, NY: h, Level: mask.Bits(), OutW: w})
	if sc != nil {
		planEnd := time.Now()
		d.observePlan(planEnd.Sub(planStart))
		if sc.traced {
			trace.Record(ctx, "idx.plan", planStart, planEnd,
				trace.Str("dataset", d.name),
				trace.Int("runs", int64(tileRows(plan.Tiles))))
		}
	}
	// spanAt[b] indexes spans for block b, or -1 when no grid sample maps
	// into the block (pure padding).
	spanAt := make([]int, numBlocks)
	for i := range spanAt {
		spanAt[i] = -1
	}
	for i, sp := range spans {
		spanAt[sp.block] = i
	}
	keys := d.blockKeys(field, t)
	blockKey := func(b int) string {
		if keys != nil {
			return keys[b]
		}
		return d.BlockKey(field, t, b)
	}

	// Fill template: padding samples (outside the logical dims) store the
	// field's fill value. Blocks with no grid samples at all share one
	// pre-encoded payload.
	rawFill := make([]byte, blockSamples*sz)
	f.Type.fillBlock(rawFill, f.Fill)
	var fillEnc []byte
	if len(spans) < numBlocks {
		fillEnc, err = codec.Encode(rawFill)
		if err != nil {
			return fmt.Errorf("idx: encode fill block: %w", err)
		}
	}

	// Write blocks in parallel: each worker owns whole blocks, so no
	// shared mutable state beyond the (concurrency-safe) backend. The
	// worker count honours SetWriteParallelism, matching the read path's
	// SetFetchParallelism knob. The aborted flag fails the whole write
	// fast once any worker hits an encode or store error — or once ctx
	// is cancelled — instead of letting the others finish every
	// remaining block.
	workers := d.writeWorkers(numBlocks)
	errCh := make(chan error, workers)
	var aborted atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, blockSamples*sz)
			for {
				if aborted.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					aborted.Store(true)
					errCh <- err
					return
				}
				b := int(next.Add(1)) - 1
				if b >= numBlocks {
					return
				}
				var encStart time.Time
				if sc != nil {
					encStart = time.Now()
				}
				enc := fillEnc
				if si := spanAt[b]; si >= 0 {
					tiles := plan.Tiles[spans[si].lo:spans[si].hi]
					if tileSamples(tiles) < blockSamples {
						copy(buf, rawFill)
					}
					scatterTiles(f.Type, buf, &plan, tiles, g.Data)
					var err error
					enc, err = codec.Encode(buf)
					if err != nil {
						aborted.Store(true)
						errCh <- fmt.Errorf("idx: encode block %d: %w", b, err)
						return
					}
				}
				var putStart time.Time
				if sc != nil {
					putStart = time.Now()
					sc.encodeNS.Add(int64(putStart.Sub(encStart)))
				}
				if err := d.be.Put(ctx, blockKey(b), enc); err != nil {
					aborted.Store(true)
					errCh <- fmt.Errorf("idx: store block %d: %w", b, err)
					return
				}
				if sc != nil {
					putEnd := time.Now()
					sc.storeNS.Add(int64(putEnd.Sub(putStart)))
					if sc.traced {
						trace.Record(ctx, "storage.put", putStart, putEnd,
							trace.Str("dataset", d.name),
							trace.Int("block", int64(b)),
							trace.Int("bytes", int64(len(enc))))
					}
				}
				d.recordBlockWrite(len(enc))
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	if sc != nil {
		d.observeWriteStages(sc)
		if sc.traced {
			end := time.Now()
			trace.RecordDuration(ctx, "idx.encode", end, sc.encode(),
				trace.Str("dataset", d.name))
			trace.RecordDuration(ctx, "idx.store", end, sc.store(),
				trace.Str("dataset", d.name))
		}
	}
	return nil
}

// Box is a half-open 2D region [X0,X1) x [Y0,Y1) in full-resolution pixel
// coordinates.
type Box struct {
	// X0, Y0 are the inclusive lower corner.
	X0, Y0 int
	// X1, Y1 are the exclusive upper corner.
	X1, Y1 int
}

// FullBox returns the dataset's entire logical region.
func (d *Dataset) FullBox() Box {
	return Box{0, 0, d.Meta.Dims[0], d.Meta.Dims[1]}
}

// Clip intersects the box with the dataset's logical region.
func (d *Dataset) Clip(b Box) Box {
	if b.X0 < 0 {
		b.X0 = 0
	}
	if b.Y0 < 0 {
		b.Y0 = 0
	}
	if b.X1 > d.Meta.Dims[0] {
		b.X1 = d.Meta.Dims[0]
	}
	if b.Y1 > d.Meta.Dims[1] {
		b.Y1 = d.Meta.Dims[1]
	}
	return b
}

// Empty reports whether the box contains no pixels.
func (b Box) Empty() bool { return b.X1 <= b.X0 || b.Y1 <= b.Y0 }

// ReadStats reports the I/O performed by one ReadBox call.
type ReadStats struct {
	// BlocksRead counts blocks fetched from the backend.
	BlocksRead int
	// BlocksCached counts blocks served by the attached cache.
	BlocksCached int
	// BytesRead counts compressed bytes fetched from the backend.
	BytesRead int64
	// Samples counts samples delivered to the caller.
	Samples int
	// Runs counts the bulk tile-row copies that assembled the output: one
	// per row of each per-block tile of the plan. Samples/Runs is the mean
	// row length.
	Runs int
}

// ReadBox extracts the level-L lattice samples of the named field within
// box, returning them as a dense grid (one output pixel per lattice
// sample). level ranges from 0 (single coarsest sample) to
// Meta.MaxLevel() (full resolution). Only blocks intersecting the
// requested lattice are fetched, which is what makes remote streaming
// practical: a coarse preview of a 100TB dataset needs a handful of
// blocks.
//
// ctx bounds every block fetch: when it is cancelled the fetch pool
// stops claiming blocks, in-flight fetches are abandoned to the
// backend's own ctx handling, and ReadBox returns the context error.
func (d *Dataset) ReadBox(ctx context.Context, field string, t int, box Box, level int) (*raster.Grid, *ReadStats, error) {
	start := time.Now()
	f, err := d.checkFieldTime(field, t)
	if err != nil {
		return nil, nil, err
	}
	if len(d.Meta.Dims) != 2 {
		return nil, nil, fmt.Errorf("idx: ReadBox requires a 2D dataset")
	}
	if level < 0 || level > d.Meta.MaxLevel() {
		return nil, nil, fmt.Errorf("idx: level %d outside [0,%d]", level, d.Meta.MaxLevel())
	}
	box = d.Clip(box)
	if box.Empty() {
		return nil, nil, fmt.Errorf("idx: empty query box")
	}
	codec, err := compress.Lookup(f.Codec)
	if err != nil {
		return nil, nil, err
	}
	ctx, span := trace.Start(ctx, "idx.read",
		trace.Str("dataset", d.name),
		trace.Str("field", field),
		trace.Int("level", int64(level)))
	defer span.End()
	sc := d.newStageClock(span != nil)
	mask := d.Meta.Bits
	strides := mask.LevelStrides(level)
	sx, sy := strides[0], strides[1]
	// First lattice point >= box lower corner.
	ax0 := (box.X0 + sx - 1) / sx * sx
	ay0 := (box.Y0 + sy - 1) / sy * sy
	if ax0 >= box.X1 || ay0 >= box.Y1 {
		return nil, nil, fmt.Errorf("idx: box %+v contains no level-%d lattice samples", box, level)
	}
	ow := (box.X1-1-ax0)/sx + 1
	oh := (box.Y1-1-ay0)/sy + 1

	out := raster.New(ow, oh)
	stats := &ReadStats{Samples: ow * oh}
	rawBlockLen := d.Meta.BlockSamples() * f.Type.Size()

	// Phase 1: plan. Decompose the query into per-block tiles over
	// separable offset tables; nothing here is per sample.
	var planStart time.Time
	if sc != nil {
		planStart = time.Now()
	}
	plan, spans := d.planTiles(hz.RunQuery{
		X0: ax0, Y0: ay0, NX: ow, NY: oh, Level: level, OutW: ow,
	})
	stats.Runs = tileRows(plan.Tiles)
	if sc != nil {
		planEnd := time.Now()
		d.observePlan(planEnd.Sub(planStart))
		if sc.traced {
			trace.Record(ctx, "idx.plan", planStart, planEnd,
				trace.Str("dataset", d.name),
				trace.Int("runs", int64(stats.Runs)),
				trace.Int("blocks", int64(len(spans))))
		}
	}
	keys := d.blockKeys(field, t)
	blockKey := func(b int) string {
		if keys != nil {
			return keys[b]
		}
		return d.BlockKey(field, t, b)
	}
	// assemble gathers what one decoded block holds of the query into the
	// output grid.
	assemble := func(raw []byte, sp blockSpan) {
		gatherTiles(f.Type, out.Data, &plan, plan.Tiles[sp.lo:sp.hi], raw)
	}
	if sc != nil {
		inner := assemble
		assemble = func(raw []byte, sp blockSpan) {
			t0 := time.Now()
			inner(raw, sp)
			sc.assembleNS.Add(int64(time.Since(t0)))
		}
	}

	// Phase 2: stream. Cached blocks are assembled immediately; misses
	// are fetched from the backend with bounded parallelism and each
	// block is assembled the moment its fetch completes, so assembly
	// overlaps the remaining fetches instead of waiting behind a barrier.
	miss := spans[:0]
	for _, sp := range spans {
		if d.cache != nil {
			if blk, ok := d.cachePeek(blockKey(sp.block)); ok {
				stats.BlocksCached++
				assemble(blk.Bytes(), sp)
				blk.Release()
				continue
			}
		}
		miss = append(miss, sp)
	}
	// Spans are already in ascending block order: deterministic fetch
	// order, sequential on disk.
	workers := d.fetchParallelism()
	if workers > len(miss) {
		workers = len(miss)
	}
	if workers <= 1 {
		for _, sp := range miss {
			if err := ctx.Err(); err != nil {
				return nil, nil, d.readErr(err)
			}
			blk, n, cached, err := d.fetchBlockKey(ctx, blockKey(sp.block), sp.block, codec, rawBlockLen, sc)
			if err != nil {
				return nil, nil, d.readErr(err)
			}
			if cached {
				stats.BlocksCached++
			} else {
				stats.BlocksRead++
				stats.BytesRead += n
			}
			assemble(blk.Bytes(), sp)
			blk.Release()
		}
	} else if err := d.fetchSpans(ctx, miss, workers, blockKey, codec, rawBlockLen, stats, assemble, sc); err != nil {
		return nil, nil, d.readErr(err)
	}

	if d.Meta.Geo != nil {
		out.Geo = &raster.Georef{
			OriginX: d.Meta.Geo.OriginX + float64(ax0)*d.Meta.Geo.PixelW,
			OriginY: d.Meta.Geo.OriginY - float64(ay0)*d.Meta.Geo.PixelH,
			PixelW:  d.Meta.Geo.PixelW * float64(sx),
			PixelH:  d.Meta.Geo.PixelH * float64(sy),
		}
	}
	if sc != nil {
		d.observeReadStages(sc)
		if sc.traced {
			end := time.Now()
			trace.RecordDuration(ctx, "idx.fetch", end, sc.fetch(),
				trace.Str("dataset", d.name),
				trace.Int("blocks", int64(stats.BlocksRead)),
				trace.Int("bytes", stats.BytesRead))
			trace.RecordDuration(ctx, "idx.decode", end, sc.decode(),
				trace.Str("dataset", d.name))
			trace.RecordDuration(ctx, "idx.assemble", end, sc.assemble(),
				trace.Str("dataset", d.name))
			span.SetAttr(
				trace.Int("blocks_read", int64(stats.BlocksRead)),
				trace.Int("blocks_cached", int64(stats.BlocksCached)),
				trace.Int("runs", int64(stats.Runs)))
		}
	}
	d.recordRead(stats)
	if d.tel != nil {
		d.tel.readSeconds.ObserveSince(start)
	}
	return out, stats, nil
}

// fetchSpans runs the parallel block-fetch pool for ReadBox. The feeder
// stops handing out spans and the workers stop claiming them the moment
// ctx is cancelled; the pool always drains fully before fetchSpans
// returns, so a cancelled read leaks no goroutines.
func (d *Dataset) fetchSpans(ctx context.Context, miss []blockSpan, workers int,
	blockKey func(int) string, codec compress.Codec, rawBlockLen int,
	stats *ReadStats, assemble func([]byte, blockSpan), sc *stageClock) error {
	type fetched struct {
		sp     blockSpan
		blk    *cache.Block
		n      int64
		cached bool
		err    error
	}
	work := make(chan blockSpan)
	results := make(chan fetched)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range work {
				blk, n, cached, err := d.fetchBlockKey(ctx, blockKey(sp.block), sp.block, codec, rawBlockLen, sc)
				select {
				case results <- fetched{sp: sp, blk: blk, n: n, cached: cached, err: err}:
				case <-ctx.Done():
					// The collector will never see this block; drop our
					// reference so its buffer can be recycled.
					if blk != nil {
						blk.Release()
					}
					return
				}
			}
		}()
	}
	go func() {
		defer close(work)
		for _, sp := range miss {
			select {
			case work <- sp:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	var firstErr error
	for r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		if r.cached {
			stats.BlocksCached++
		} else {
			stats.BlocksRead++
			stats.BytesRead += r.n
		}
		assemble(r.blk.Bytes(), r.sp)
		r.blk.Release()
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// ReadFull reads the complete dataset extent at full resolution.
func (d *Dataset) ReadFull(ctx context.Context, field string, t int) (*raster.Grid, *ReadStats, error) {
	return d.ReadBox(ctx, field, t, d.FullBox(), d.Meta.MaxLevel())
}

// StoredBytes sums the sizes of all stored blocks of one field/timestep,
// plus nothing else; the experiment harness compares this to TIFF sizes.
func (d *Dataset) StoredBytes(ctx context.Context, field string, t int) (int64, error) {
	if _, err := d.checkFieldTime(field, t); err != nil {
		return 0, err
	}
	prefix := fmt.Sprintf("fields/%s/t%04d/", field, t)
	names, err := d.be.List(ctx, prefix)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		data, err := d.be.Get(ctx, name)
		if err != nil {
			return 0, err
		}
		total += int64(len(data))
	}
	return total, nil
}
