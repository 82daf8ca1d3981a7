// Package query implements the storage-oblivious query API the tutorial
// paper attributes to OpenVisus (§III-A): "query specific data based on
// parameters such as region of interest, level of resolution, numerical
// precision, and amount of data", abstracting away where and how the
// samples are stored. It combines an idx.Dataset, a block cache, and
// progressive (coarse-to-fine) delivery.
package query

import (
	"context"
	"fmt"
	"math"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/trace"
)

// Request describes what the caller wants, independent of storage layout.
type Request struct {
	// Field names the dataset variable.
	Field string
	// Time selects the timestep (dashboard time slider).
	Time int
	// Box is the region of interest in full-resolution pixels. The zero
	// box means the dataset's full extent.
	Box idx.Box
	// Level is the resolution level; -1 (or LevelAuto) resolves the level
	// from MaxSamples, and LevelFull requests full resolution.
	Level int
	// MaxSamples bounds the "amount of data": when Level is LevelAuto the
	// engine picks the finest level whose sample count fits. Zero means
	// no bound (full resolution).
	MaxSamples int
	// PrecisionBits optionally reduces numerical precision: 0 or 32 keeps
	// float32; values in [1,31] round mantissas to that many significant
	// bits, modelling reduced-precision transfers.
	PrecisionBits int
	// Z selects the XY plane a 3D dataset is viewed at. 2D datasets
	// ignore it.
	Z int
}

// Sentinel values for Request.Level.
const (
	// LevelAuto picks the level from MaxSamples.
	LevelAuto = -1
	// LevelFull requests the dataset's finest level.
	LevelFull = -2
)

// Result carries one delivered resolution of a request.
type Result struct {
	// Level is the HZ resolution level of this result.
	Level int
	// Grid holds the samples.
	Grid *raster.Grid
	// Stats reports the I/O performed for this level.
	Stats idx.ReadStats
	// TransferBytes estimates payload bytes at the requested precision
	// (samples × precision bits / 8); the quantity a remote dashboard
	// session would move for this refinement.
	TransferBytes int64
}

// Engine evaluates Requests against one dataset.
type Engine struct {
	ds    *idx.Dataset
	cache *cache.Tiered
	name  string
}

// New wraps a dataset with an in-memory block cache of cacheBytes (0
// disables caching). The cache coalesces concurrent fetches of one
// block; use NewWithCache to add a disk tier.
func New(ds *idx.Dataset, cacheBytes int64) *Engine {
	return NewWithCache(ds, cache.NewMemTiered(cacheBytes))
}

// NewWithCache wraps a dataset with a caller-built tiered cache, so
// servers can configure a disk tier. The dataset weighs its blocks into
// the cache (idx.Dataset.SetCache).
func NewWithCache(ds *idx.Dataset, c *cache.Tiered) *Engine {
	e := &Engine{ds: ds, cache: c}
	ds.SetCache(e.cache)
	return e
}

// Dataset returns the underlying dataset.
func (e *Engine) Dataset() *idx.Dataset { return e.ds }

// SetFetchParallelism bounds concurrent block fetches per request; see
// idx.Dataset.SetFetchParallelism. Raise it for high-latency remote
// stores.
func (e *Engine) SetFetchParallelism(n int) { e.ds.SetFetchParallelism(n) }

// SetFetchPressure attaches a load-pressure source that shrinks the
// per-request fetch fan-out under load; see
// idx.Dataset.SetFetchPressure. Servers wire it to their admission
// controller so backend concurrency contracts when the front door is
// saturated.
func (e *Engine) SetFetchPressure(fn func() float64) { e.ds.SetFetchPressure(fn) }

// CacheStats reports the engine's block-cache counters.
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// Instrument wires the engine's dataset and block cache into a telemetry
// registry, labelling both with the given dataset name. See
// idx.Dataset.SetTelemetry and cache.Tiered.Instrument for the series.
// The name also labels the spans the engine records into active request
// traces.
func (e *Engine) Instrument(reg *telemetry.Registry, name string) {
	e.name = name
	e.ds.SetTelemetry(reg, name)
	e.cache.Instrument(reg, name)
}

// Resolve fills the request's defaults, validates it against the
// dataset and turns LevelAuto and LevelFull into a concrete level. An
// empty Field becomes the first field and the zero Box the full XY
// extent; the box is then clipped to the dataset. Read and Progressive
// resolve every request, and resolving a resolved request changes
// nothing, so a server can resolve once to reject a bad request before
// it reads.
func (e *Engine) Resolve(req Request) (Request, error) {
	meta := &e.ds.Meta
	if req.Field == "" {
		req.Field = meta.Fields[0].Name
	}
	if _, err := meta.Field(req.Field); err != nil {
		return req, err
	}
	if req.Time < 0 || req.Time >= meta.Timesteps {
		return req, fmt.Errorf("query: timestep %d outside [0,%d)", req.Time, meta.Timesteps)
	}
	if req.Box == (idx.Box{}) {
		req.Box = e.ds.FullBox()
	}
	req.Box = e.ds.Clip(req.Box)
	if req.Box.Empty() {
		return req, fmt.Errorf("query: empty region of interest")
	}
	if req.MaxSamples < 0 {
		return req, fmt.Errorf("query: max samples %d is negative", req.MaxSamples)
	}
	switch {
	case req.Level == LevelFull:
		req.Level = meta.MaxLevel()
	case req.Level == LevelAuto:
		req.Level = e.resolveLevel(req.Box, req.MaxSamples)
	case req.Level < 0 || req.Level > meta.MaxLevel():
		return req, fmt.Errorf("query: level %d outside [0,%d]", req.Level, meta.MaxLevel())
	}
	if req.PrecisionBits < 0 || req.PrecisionBits > 32 {
		return req, fmt.Errorf("query: precision %d bits outside [0,32]", req.PrecisionBits)
	}
	if len(meta.Dims) == 2 {
		req.Z = 0
	} else if req.Z < 0 || req.Z >= meta.Dims[2] {
		return req, fmt.Errorf("query: plane z=%d outside [0,%d)", req.Z, meta.Dims[2])
	}
	return req, nil
}

// resolveLevel picks the finest level whose lattice inside box stays
// within maxSamples (0 = unbounded).
func (e *Engine) resolveLevel(box idx.Box, maxSamples int) int {
	maxLevel := e.ds.Meta.MaxLevel()
	if maxSamples <= 0 {
		return maxLevel
	}
	level := 0
	for l := 0; l <= maxLevel; l++ {
		if SamplesAtLevel(e.ds, box, l) <= maxSamples {
			level = l
		} else {
			break
		}
	}
	return level
}

// SamplesAtLevel returns the number of level-l lattice samples inside box.
func SamplesAtLevel(ds *idx.Dataset, box idx.Box, l int) int {
	s := ds.Meta.Bits.LevelStrides(l)
	nx := latticeCount(box.X0, box.X1, s[0])
	ny := latticeCount(box.Y0, box.Y1, s[1])
	return nx * ny
}

func latticeCount(lo, hi, stride int) int {
	first := (lo + stride - 1) / stride * stride
	if first >= hi {
		return 0
	}
	return (hi-1-first)/stride + 1
}

// Read evaluates the request at its resolved level. ctx bounds all block
// I/O the read performs; a cancelled request aborts mid-fetch and
// returns the context error.
func (e *Engine) Read(ctx context.Context, req Request) (Result, error) {
	req, err := e.Resolve(req)
	if err != nil {
		return Result{}, err
	}
	ctx, span := trace.Start(ctx, "query.read",
		trace.Str("dataset", e.name),
		trace.Str("field", req.Field),
		trace.Int("level", int64(req.Level)))
	defer span.End()
	return e.readAtLevel(ctx, req, req.Level)
}

func (e *Engine) readAtLevel(ctx context.Context, req Request, level int) (Result, error) {
	g, stats, err := e.readPlane(ctx, req, level)
	if err != nil {
		return Result{}, err
	}
	bits := req.PrecisionBits
	if bits == 0 {
		bits = 32
	}
	if bits < 32 {
		quantizeMantissa(g.Data, bits)
	}
	return Result{
		Level:         level,
		Grid:          g,
		Stats:         *stats,
		TransferBytes: int64(stats.Samples) * int64(bits) / 8,
	}, nil
}

// readPlane reads the request's box at level. A 3D dataset is read as
// one XY plane: Z is aligned down to the level's Z lattice, so the plane
// holds samples at every level.
func (e *Engine) readPlane(ctx context.Context, req Request, level int) (*raster.Grid, *idx.ReadStats, error) {
	if len(e.ds.Meta.Dims) == 2 {
		return e.ds.ReadBox(ctx, req.Field, req.Time, req.Box, level)
	}
	sz := e.ds.Meta.Bits.LevelStrides(level)[2]
	za := req.Z / sz * sz
	b := req.Box
	vol, stats, err := e.ds.ReadBox3D(ctx, req.Field, req.Time,
		idx.Box3{X0: b.X0, Y0: b.Y0, Z0: za, X1: b.X1, Y1: b.Y1, Z1: za + 1}, level)
	if err != nil {
		return nil, nil, err
	}
	return &raster.Grid{W: vol.Dims[0], H: vol.Dims[1], Data: vol.Data}, stats, nil
}

// Progressive streams the request coarse-to-fine: it invokes fn once per
// delivered level, starting at startLevel (clamped to the first level
// with at least one sample in the box) and refining by step levels until
// the request's resolved level. Returning a non-nil error from fn stops
// the stream. This is the access pattern behind the dashboard's
// immediate-preview-then-refine behaviour. ctx is checked between levels
// as well as inside each level's block fetches, so a disconnected client
// stops the refinement loop before its next (and most expensive) level.
func (e *Engine) Progressive(ctx context.Context, req Request, startLevel, step int, fn func(Result) error) error {
	req, err := e.Resolve(req)
	if err != nil {
		return err
	}
	ctx, span := trace.Start(ctx, "query.progressive",
		trace.Str("dataset", e.name),
		trace.Str("field", req.Field),
		trace.Int("level", int64(req.Level)))
	defer span.End()
	if step < 1 {
		step = 2
	}
	// Clamp the start to the coarsest level with samples in the box.
	first := startLevel
	if first < 0 {
		first = 0
	}
	for first < req.Level && SamplesAtLevel(e.ds, req.Box, first) == 0 {
		first++
	}
	for level := first; ; level += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		if level > req.Level {
			level = req.Level
		}
		res, err := e.readAtLevel(ctx, req, level)
		if err != nil {
			return err
		}
		if err := fn(res); err != nil {
			return err
		}
		if level == req.Level {
			return nil
		}
	}
}

// ProbePoint returns the named field's value at pixel (x,y) for every
// timestep — the time-series probe behind the dashboard's "observe
// changes and trends over time". Reads go through the block cache, so a
// probe after a playback pass is free. ctx is checked per timestep.
func (e *Engine) ProbePoint(ctx context.Context, field string, x, y int) ([]float32, error) {
	meta := e.ds.Meta
	if len(meta.Dims) != 2 {
		return nil, fmt.Errorf("query: point probe requires a 2D dataset")
	}
	if x < 0 || y < 0 || x >= meta.Dims[0] || y >= meta.Dims[1] {
		return nil, fmt.Errorf("query: probe point (%d,%d) outside %dx%d", x, y, meta.Dims[0], meta.Dims[1])
	}
	ctx, span := trace.Start(ctx, "query.probe",
		trace.Str("dataset", e.name),
		trace.Str("field", field),
		trace.Int("timesteps", int64(meta.Timesteps)))
	defer span.End()
	out := make([]float32, meta.Timesteps)
	box := idx.Box{X0: x, Y0: y, X1: x + 1, Y1: y + 1}
	for t := 0; t < meta.Timesteps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, _, err := e.ds.ReadBox(ctx, field, t, box, meta.MaxLevel())
		if err != nil {
			return nil, fmt.Errorf("query: probe t=%d: %w", t, err)
		}
		out[t] = g.Data[0]
	}
	return out, nil
}

// quantizeMantissa rounds each float32 to the given number of significant
// mantissa bits, modelling a reduced-precision transfer.
func quantizeMantissa(data []float32, bits int) {
	if bits >= 24 {
		return // float32 has 23 explicit mantissa bits; nothing to drop
	}
	drop := uint(24 - bits)
	mask := ^uint32(0) << drop
	half := uint32(1) << (drop - 1)
	for i, v := range data {
		b := math.Float32bits(v)
		if isNaNOrInf(b) {
			continue
		}
		rounded := (b + half) & mask
		data[i] = math.Float32frombits(rounded)
	}
}

func isNaNOrInf(b uint32) bool {
	return b&0x7F800000 == 0x7F800000
}
