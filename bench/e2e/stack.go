package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/cache"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
	"nsdfgo/internal/tiff"
)

// sizes fixes every dimension of the benchmark. The values in
// benchSizes are part of the benchmark's definition; tests shrink them.
type sizes struct {
	Dim       int // tutorial dataset is Dim x Dim float32
	Timesteps int
	Zoom      int // side of a zoom box in full-resolution pixels
	RasterDim int // ingest rasters are RasterDim x RasterDim float32
	Rasters   int
	SetupReps int // set-ups timed per run; setup_s is their median

	WarmCacheBytes int64 // at least the decoded dataset
	ColdCacheBytes int64 // a sixteenth of it
}

// benchSizes: 2 fields x 2 timesteps x 2048² float32 = 64 MiB decoded,
// 256 blocks of 2^16 samples.
var benchSizes = sizes{
	Dim: 2048, Timesteps: 2, Zoom: 512,
	RasterDim: 1024, Rasters: 8, SetupReps: 3,
	WarmCacheBytes: 128 << 20, ColdCacheBytes: 4 << 20,
}

const datasetName = "tutorial"

var fieldNames = []string{"elevation", "slope"}

// terrainSeed fixes the terrain, so stored_ratio repeats exactly and a
// run's --seed varies only what is asked of the system, not the data.
const terrainSeed = 20240624

// rasterInput is one ingest source: the TIFF a participant uploads and
// the grid it was encoded from, which the read-back must equal.
type rasterInput struct {
	name string
	tiff []byte
	grid *raster.Grid
}

// inputs are the source data; they are also the oracle every response
// is checked against.
type inputs struct {
	sz      sizes
	grids   map[string][]*raster.Grid // field -> timestep -> source grid
	rasters []rasterInput
}

// buildInputs synthesises the tutorial terrain: elevation from seeded
// fBm, slope as its gradient magnitude, later timesteps as the first
// one eroded a little more each step.
func buildInputs(sz sizes, withRasters bool) (*inputs, error) {
	in := &inputs{sz: sz, grids: make(map[string][]*raster.Grid)}
	base := dem.FBM(sz.Dim, sz.Dim, terrainSeed, dem.DefaultFBM())
	for t := 0; t < sz.Timesteps; t++ {
		elev := raster.New(sz.Dim, sz.Dim)
		k := 1 - 0.03*float32(t)
		for i, v := range base.Data {
			elev.Data[i] = v * k
		}
		in.grids["elevation"] = append(in.grids["elevation"], elev)
		in.grids["slope"] = append(in.grids["slope"], slopeOf(elev))
	}
	if !withRasters {
		return in, nil
	}
	// Ingest rasters are windows of the elevation at fixed offsets: all
	// of one kind, so that every op costs about the same and the median
	// op is not the gap between a cheap and a dear kind of raster.
	span := sz.Dim - sz.RasterDim
	for i := 0; i < sz.Rasters; i++ {
		x0 := span * (i % 3) / 2
		y0 := span * ((i / 3) % 3) / 2
		g, err := in.grids["elevation"][i%sz.Timesteps].Crop(x0, y0, sz.RasterDim, sz.RasterDim)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tiff.Encode(&buf, tiff.FromGrid(g), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
			return nil, err
		}
		in.rasters = append(in.rasters, rasterInput{name: fmt.Sprintf("tile%d.tif", i), tiff: buf.Bytes(), grid: g})
	}
	return in, nil
}

// slopeOf returns the central-difference gradient magnitude of g.
func slopeOf(g *raster.Grid) *raster.Grid {
	out := raster.New(g.W, g.H)
	at := func(x, y int) float32 {
		return g.Data[min(max(y, 0), g.H-1)*g.W+min(max(x, 0), g.W-1)]
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			dx := float64(at(x+1, y) - at(x-1, y))
			dy := float64(at(x, y+1) - at(x, y-1))
			out.Data[y*g.W+x] = float32(math.Sqrt(dx*dx+dy*dy) * float64(g.W) / 2)
		}
	}
	return out
}

// rawBytes is the decoded size of the tutorial dataset.
func (in *inputs) rawBytes() int64 {
	return int64(len(fieldNames)) * int64(in.sz.Timesteps) * int64(in.sz.Dim) * int64(in.sz.Dim) * 4
}

// stack is the serving stack of cmd/nsdf-dashboard -peers over three
// cmd/nsdf-store leaves, stood up in this process over loopback HTTP:
//
//	WithTracing -> admission.Middleware -> WithRequestTimeout ->
//	dashboard.Server -> query.Engine -> idx.Dataset -> cache.Tiered ->
//	storage.IDXBackend -> storage.Instrumented -> shard.Router (R=2,
//	hedge 25ms) -> 3 x storage.Client -> 3 x storage.Server -> FileStore
//
// With a recorder, the wrappers of wrap.go sit at each arrow that is an
// interface.
type stack struct {
	rec     *recorder
	dir     string
	servers []*http.Server
	serving sync.WaitGroup

	reg     *telemetry.Registry
	traces  *trace.Collector
	admit   *admission.Controller
	store   storage.Store // the instrumented router
	tiered  *cache.Tiered
	engine  *query.Engine
	baseURL string
	nodes   []string

	setupSeconds  float64 // servers up + dataset ingested + engine open
	ingestSeconds float64 // the WriteGrid calls alone
	storedBytes   int64   // tutorial dataset on one replica
}

const (
	nodeCount      = 3
	replicas       = 2
	hedgeAfter     = 25 * time.Millisecond
	admissionSlots = 8 // non-binding: the harness runs at most 2 clients
	requestTimeout = 30 * time.Second
)

// serve starts h on a loopback port and returns its base URL.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed from close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server, waits for them, and removes the stores. A
// failure here cannot change a result already measured, so it is only
// reported.
func (s *stack) close() {
	for _, srv := range s.servers {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "e2e: closing server:", err)
		}
	}
	s.serving.Wait()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections() // storage.Client keeps its connections there
	}
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: removing the stores:", err)
	}
}

// codecName is the block codec of datasets this stack writes.
func (s *stack) codecName() string {
	if s.rec != nil {
		return tracedCodecName
	}
	return idx.DefaultCodec(idx.Float32)
}

// backend roots an idx backend at prefix inside the sharded tier.
func (s *stack) backend(prefix string) idx.Backend {
	be := storage.NewIDXBackend(s.store, prefix)
	if s.rec != nil {
		return &tracedBackend{inner: be, rec: s.rec}
	}
	return be
}

// engineOn opens the dataset at be behind a fresh block cache, the way
// nsdf-dashboard registers a -data spec.
func (s *stack) engineOn(ctx context.Context, be idx.Backend, cacheBytes int64) (*query.Engine, *cache.Tiered, error) {
	ds, err := idx.Open(ctx, be)
	if err != nil {
		return nil, nil, err
	}
	tiered, err := cache.NewTiered(cache.Options{MemBytes: cacheBytes})
	if err != nil {
		return nil, nil, err
	}
	e := query.NewWithCache(ds, tiered)
	if s.rec != nil {
		ds.SetCache(&tracedCache{inner: tiered, rec: s.rec})
	}
	return e, tiered, nil
}

// newStack stands the stack up under dir, ingests the tutorial dataset
// through the router and opens it behind a cache of cacheBytes.
func newStack(ctx context.Context, dir string, in *inputs, cacheBytes int64, rec *recorder) (_ *stack, err error) {
	s := &stack{rec: rec, dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if rec != nil {
		if err := useTracedCodec(rec); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s.reg = telemetry.NewRegistry()
	s.traces = trace.NewCollector(trace.DefaultCapacity)
	s.traces.SetNode("dashboard")
	fl := flight.New(flight.DefaultCapacity)

	var nodes []shard.Node
	for i := 0; i < nodeCount; i++ {
		name := fmt.Sprintf("n%d", i)
		fs, err := storage.NewFileStore(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var h http.Handler = storage.NewServer(fs, "")
		if rec != nil {
			h = traceStoreServer(rec, name, h)
		}
		url, err := s.serve(h)
		if err != nil {
			return nil, err
		}
		var st storage.Store = storage.NewClient(url, "")
		if rec != nil {
			st = &tracedStore{inner: st, rec: rec, node: name}
		}
		nodes = append(nodes, shard.Node{Name: name, Store: st})
		s.nodes = append(s.nodes, name)
	}
	router, err := shard.NewRouter(nodes, shard.Options{Replicas: replicas, HedgeAfter: hedgeAfter})
	if err != nil {
		return nil, err
	}
	router.Instrument(s.reg)
	router.SetFlight(fl)
	s.store = storage.NewInstrumented(router, s.reg, "shard")

	// Ingest: the tutorial's convert step, writing through the router.
	be := s.backend("datasets/" + datasetName)
	fields := make([]idx.Field, len(fieldNames))
	for i, name := range fieldNames {
		fields[i] = idx.Field{Name: name, Type: idx.Float32, Codec: s.codecName()}
	}
	meta, err := idx.NewMeta([]int{in.sz.Dim, in.sz.Dim}, fields)
	if err != nil {
		return nil, err
	}
	meta.Timesteps = in.sz.Timesteps
	ds, err := idx.Create(ctx, be, meta)
	if err != nil {
		return nil, err
	}
	ingestStart := time.Now()
	for _, name := range fieldNames {
		for t, g := range in.grids[name] {
			if err := ds.WriteGrid(ctx, name, t, g); err != nil {
				return nil, err
			}
		}
	}
	s.ingestSeconds = time.Since(ingestStart).Seconds()

	// Serve: the wiring of cmd/nsdf-dashboard's run().
	s.engine, s.tiered, err = s.engineOn(ctx, be, cacheBytes)
	if err != nil {
		return nil, err
	}
	server := dashboard.NewServer()
	server.EnableTelemetry(s.reg)
	server.EnableTracing(s.traces)
	server.EnableFlightRecorder(fl)
	server.SetLogger(logger)
	s.admit = admission.NewController(admission.Options{
		MaxConcurrent: admissionSlots, MaxQueue: 64, QueueTimeout: 2 * time.Second,
	})
	s.admit.Instrument(s.reg, "dashboard")
	s.admit.SetFlight(fl)
	s.engine.SetFetchPressure(s.admit.Pressure)
	server.Register(datasetName, s.engine)

	var h http.Handler = server
	if rec != nil {
		h = traceDashboard(rec, h)
	}
	h = telemetry.WithRequestTimeout(h, requestTimeout)
	if rec != nil {
		h = traceHandler(rec, "telemetry.timeout", h)
	}
	h = s.admit.Middleware(h)
	if rec != nil {
		h = traceHandler(rec, "admission.gate", h)
	}
	h = telemetry.WithTracing(h, s.traces, telemetry.TracingOptions{
		Service: "dashboard", SlowRequest: time.Second, Logger: logger, Flight: fl,
	})
	if rec != nil {
		h = traceEntry(rec, h)
	}
	if s.baseURL, err = s.serve(h); err != nil {
		return nil, err
	}
	s.setupSeconds = time.Since(start).Seconds()

	s.storedBytes, err = storedUnder(ctx, s.store, "datasets/"+datasetName+"/"+idx.BlockPrefix)
	return s, err
}

// storedUnder sums the object sizes under prefix as one replica holds
// them (the router's listing merges replicas).
func storedUnder(ctx context.Context, st storage.Store, prefix string) (int64, error) {
	infos, err := st.List(ctx, prefix)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, info := range infos {
		total += info.Size
	}
	return total, nil
}
