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

	"nsdfgo/internal/cache"
	"nsdfgo/internal/hz"
	"nsdfgo/internal/raster"
)

// Dataset is an IDX dataset bound to a Backend.
type Dataset struct {
	// Meta is the dataset descriptor.
	Meta Meta

	be               Backend
	cache            BlockCache
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

// BlockCache is the block-level cache consulted before the Backend on
// reads ("the caching-enabled framework"): the methods of cache.Tiered
// the block path calls. Blocks are immutable shared memory the garbage
// collector owns: a lookup hands out the resident payload without
// copying, Put adopts the decode buffer instead of copying it, and
// nobody writes to Bytes or hands a Block back.
type BlockCache interface {
	// Peek returns the cached block, if present, without booking a miss:
	// the read path probes every block of a query first and routes the
	// misses through GetOrFill, which books the authoritative one.
	Peek(key string) (*cache.Block, bool)
	// GetOrFill returns the block for key, running fill at most once
	// across concurrent callers, so N readers of one uncached block
	// share a single backend fetch. See cache.Tiered.GetOrFill.
	GetOrFill(ctx context.Context, key string, fill func(ctx context.Context) ([]byte, error)) (*cache.Block, cache.Outcome, error)
	// Put adopts data as an immutable cached block and returns it (valid
	// even when the cache declines the entry). The caller must not write
	// to data after Put.
	Put(key string, data []byte) *cache.Block
	// Remove invalidates key in every tier; the write path calls it
	// after each block store.
	Remove(key string)
}

// FillerCache is BlockCache under the name bench/e2e asserts; nothing
// else uses it (ROADMAP.md 4(a)).
type FillerCache = BlockCache

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

// SetCache attaches a block cache used by subsequent reads and kept
// coherent by subsequent writes.
func (d *Dataset) SetCache(c BlockCache) { d.cache = c }

// SetFetchParallelism bounds how many block fetches a single read (2D
// or 3D) may issue concurrently against the backend. 1 (the default)
// fetches serially; higher values hide round-trip latency on remote object
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

// wantDims rejects op on a dataset that does not have n dimensions.
func (d *Dataset) wantDims(op string, n int) error {
	if len(d.Meta.Dims) != n {
		return fmt.Errorf("idx: %s requires a %dD dataset; this one has %d dims", op, n, len(d.Meta.Dims))
	}
	return nil
}

// WriteGrid stores a full-resolution 2D grid as timestep t of the named
// field, producing every block of the HZ decomposition. The grid must
// match the dataset's logical dimensions. Cancelling ctx aborts the
// write worker pool at its next block claim; already-stored blocks are
// left behind (block writes are not transactional).
func (d *Dataset) WriteGrid(ctx context.Context, field string, t int, g *raster.Grid) error {
	if err := d.wantDims("WriteGrid", 2); err != nil {
		return err
	}
	if g.W != d.Meta.Dims[0] || g.H != d.Meta.Dims[1] {
		return fmt.Errorf("idx: grid %dx%d does not match dataset %dx%d", g.W, g.H, d.Meta.Dims[0], d.Meta.Dims[1])
	}
	return d.writeField(ctx, "idx.write", field, t, g.Data)
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

// ReadStats reports the I/O performed by one ReadBox or ReadBox3D call.
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
	if err := d.wantDims("ReadBox", 2); err != nil {
		return nil, nil, err
	}
	r, stats, err := d.readLattice(ctx, "idx.read", field, t,
		[hz.Axes]int{box.X0, box.Y0}, [hz.Axes]int{box.X1, box.Y1}, level)
	if err != nil {
		return nil, nil, err
	}
	out := &raster.Grid{W: r.Dims[0], H: r.Dims[1], Data: r.Data}
	if geo := d.Meta.Geo; geo != nil {
		out.Geo = &raster.Georef{
			OriginX: geo.OriginX + float64(r.Offset[0])*geo.PixelW,
			OriginY: geo.OriginY - float64(r.Offset[1])*geo.PixelH,
			PixelW:  geo.PixelW * float64(r.Stride[0]),
			PixelH:  geo.PixelH * float64(r.Stride[1]),
		}
	}
	return out, stats, nil
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
	prefix := fmt.Sprintf(BlockPrefix+"%s/t%04d/", field, t)
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
