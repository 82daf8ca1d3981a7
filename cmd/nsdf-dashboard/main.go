// Command nsdf-dashboard serves the step-4 interactive dashboard over one
// or more IDX datasets. With -demo it synthesises a Tennessee dataset
// first so the dashboard works out of the box.
//
// Every request runs under a trace: the X-NSDF-Trace-Id response header
// names it, /debug/traces shows where its time went, requests slower
// than -slow-request log a structured summary of their worst spans, and
// -pprof-addr exposes the Go profiler on a separate listener.
//
// Usage:
//
//	nsdf-dashboard -addr :8080 -data name=./tennessee.idxdata
//	nsdf-dashboard -demo -slow-request 250ms -log-format json
//	nsdf-dashboard -peers a=http://h1:9000,b=http://h2:9000 \
//	    -replicas 2 -hedge-after 30ms -data tennessee=datasets/tennessee
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/cache"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-dashboard:", err)
		os.Exit(1)
	}
}

type dataFlags []string

func (d *dataFlags) String() string { return strings.Join(*d, ",") }

// Set implements flag.Value.
func (d *dataFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	cacheMB := flag.Int("cache-mb", 64, "in-memory block cache size per dataset in MiB")
	cacheDir := flag.String("cache-dir", "", "directory for an on-disk block cache tier below memory (empty disables; contents are wiped at startup)")
	cacheDiskBytes := flag.Int64("cache-disk-bytes", 256<<20, "on-disk block cache budget per dataset in bytes (with -cache-dir)")
	demo := flag.Bool("demo", false, "synthesise and register a demo Tennessee dataset")
	summaryEvery := flag.Duration("summary-interval", 30*time.Second, "interval between one-line telemetry summaries (0 disables)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline bounding all block I/O (0 disables)")
	slowRequest := flag.Duration("slow-request", time.Second, "log a structured span summary for requests at least this slow (0 disables)")
	logFormat := flag.String("log-format", telemetry.LogFormatText, "log encoding: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	traceBuffer := flag.Int("trace-buffer", trace.DefaultCapacity, "completed traces retained for /debug/traces")
	nodeName := flag.String("node-name", "dashboard", "this process's node name, stamped on every span it records")
	federateTimeout := flag.Duration("federate-timeout", dashboard.DefaultFederateTimeout, "per-peer fetch deadline for /debug/traces?federate=1 assembly (with -peers)")
	flightBuffer := flag.Int("flight-buffer", flight.DefaultCapacity, "anomaly events retained for /debug/flightrecorder")
	peers := flag.String("peers", "", "comma-separated name=url store nodes forming the sharded block tier; -data specs then name key prefixes inside it")
	peerToken := flag.String("peer-token", "", "bearer token for the sharded tier's stores (with -peers)")
	replicaCount := flag.Int("replicas", 2, "replicas per block key across the sharded tier (with -peers)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fire a hedged block read at the next replica after this delay; pick a p99-ish value (0 disables hedging)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max concurrently served requests (0 disables the concurrency limiter)")
	maxQueue := flag.Int("max-queue", 64, "admission control: requests allowed to wait for a slot before shedding (with -max-inflight)")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "admission control: longest a queued request waits for a slot before 429 (with -max-inflight; 0 waits for the request deadline)")
	tenantRPS := flag.Float64("tenant-rps", 0, "admission control: per-tenant steady request rate in req/s, tenant from "+admission.TenantHeader+" or client address (0 disables rate limiting)")
	tenantBurst := flag.Float64("tenant-burst", 0, "admission control: per-tenant token-bucket burst (defaults to -tenant-rps)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed (429) responses")
	var data dataFlags
	flag.Var(&data, "data", "dataset as name=path/to/idx/dir, or name=key/prefix with -peers (repeatable)")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		return err
	}
	telemetry.SetLogger(logger)

	ctx := context.Background()
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	telemetry.RegisterBuildInfo(reg)
	traces := trace.NewCollector(*traceBuffer)
	traces.SetNode(*nodeName)
	fl := flight.New(*flightBuffer)
	fl.SetNode(*nodeName)
	server := dashboard.NewServer()
	server.EnableTelemetry(reg)
	server.EnableTracing(traces)
	server.EnableFlightRecorder(fl)
	server.SetLogger(logger)
	// Admission control fronts every data endpoint: per-tenant rate
	// limiting plus a bounded-concurrency limiter whose overflow is shed
	// as 429 + Retry-After. Its pressure feeds the idx fetch pools below
	// so per-request block-fetch fan-out contracts under load.
	var admit *admission.Controller
	if *maxInflight > 0 || *tenantRPS > 0 {
		admit = admission.NewController(admission.Options{
			MaxConcurrent: *maxInflight,
			MaxQueue:      *maxQueue,
			QueueTimeout:  *queueTimeout,
			TenantRate:    *tenantRPS,
			TenantBurst:   *tenantBurst,
			RetryAfter:    *retryAfter,
		})
		admit.Instrument(reg, "dashboard")
		admit.SetFlight(fl)
		logger.Info("admission control enabled",
			slog.Int("max_inflight", *maxInflight),
			slog.Int("max_queue", *maxQueue),
			slog.Duration("queue_timeout", *queueTimeout),
			slog.Float64("tenant_rps", *tenantRPS))
	}
	// register hooks each engine's fetch pool to the admission limiter's
	// pressure before exposing it: an engine serving admitted requests
	// fans out fewer concurrent block fetches as the limiter fills.
	register := func(name string, e *query.Engine) {
		if admit != nil {
			e.SetFetchPressure(admit.Pressure)
		}
		server.Register(name, e)
	}
	// newDatasetCache builds one tiered block cache per dataset. Each
	// dataset gets its own subdirectory of -cache-dir because the disk
	// tier wipes its directory at startup.
	newDatasetCache := func(name string) (*cache.Tiered, error) {
		opts := cache.Options{MemBytes: int64(*cacheMB) << 20}
		if *cacheDir != "" {
			opts.DiskDir = filepath.Join(*cacheDir, name)
			opts.DiskBytes = *cacheDiskBytes
		}
		return cache.NewTiered(opts)
	}
	// With -peers, datasets live in the sharded block tier rather than on
	// local disk: the router (replication, hedged reads, failover) drops
	// under storage.Instrumented and the IDX backend adapter unchanged,
	// and each -data spec names the dataset's key prefix inside the tier.
	// Peers are dialled at nsdf-store's /internal/ leaf plane (local
	// store only): replicating through a peer's router-backed public
	// plane would route the write again.
	var shardStore storage.Store
	if *peers != "" {
		nodes, err := shard.ParsePeers(*peers, func(target string) storage.Store {
			return storage.NewClient(target+"/internal", *peerToken)
		})
		if err != nil {
			return err
		}
		router, err := shard.NewRouter(nodes, shard.Options{Replicas: *replicaCount, HedgeAfter: *hedgeAfter})
		if err != nil {
			return err
		}
		router.Instrument(reg)
		router.SetFlight(fl)
		shardStore = storage.NewInstrumented(router, reg, "shard")
		// Federated trace assembly pulls remote spans from the peers'
		// debug endpoints, which live at the peer base URL (the /internal
		// suffix is an object-plane detail).
		targets, err := shard.PeerTargets(*peers)
		if err != nil {
			return err
		}
		server.EnableFederation(targets, *federateTimeout)
		logger.Info("sharded block tier enabled",
			slog.Int("nodes", router.Ring().Len()),
			slog.Int("replicas", router.Replicas()),
			slog.Duration("hedge_after", *hedgeAfter))
	}
	registered := 0
	for _, spec := range data {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -data %q (want name=path)", spec)
		}
		var be idx.Backend
		if shardStore != nil {
			be = storage.NewIDXBackend(shardStore, path)
		} else {
			dirBE, err := idx.NewDirBackend(path)
			if err != nil {
				return err
			}
			be = dirBE
		}
		ds, err := idx.Open(ctx, be)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		bc, err := newDatasetCache(name)
		if err != nil {
			return fmt.Errorf("cache for %s: %w", name, err)
		}
		register(name, query.NewWithCache(ds, bc))
		logger.Info("registered dataset",
			slog.String("dataset", name),
			slog.Int("width", ds.Meta.Dims[0]),
			slog.Int("height", ds.Meta.Dims[1]),
			slog.Int("fields", len(ds.Meta.Fields)),
			slog.Int("timesteps", ds.Meta.Timesteps))
		registered++
	}
	if *demo {
		ds, err := buildDemoDataset(ctx)
		if err != nil {
			return fmt.Errorf("demo dataset: %w", err)
		}
		bc, err := newDatasetCache("tennessee_demo")
		if err != nil {
			return fmt.Errorf("cache for tennessee_demo: %w", err)
		}
		register("tennessee_demo", query.NewWithCache(ds, bc))
		logger.Info("registered dataset",
			slog.String("dataset", "tennessee_demo"),
			slog.Int("width", 512), slog.Int("height", 256),
			slog.Int("fields", len(geotiled.TutorialParams)))
		registered++
	}
	if registered == 0 {
		return fmt.Errorf("nothing to serve: pass -data name=path or -demo")
	}
	if *summaryEvery > 0 {
		go summaryLoop(logger, reg, *summaryEvery)
	}
	if *pprofAddr != "" {
		go telemetry.ServePprof(logger, *pprofAddr)
	}
	logger.Info("dashboard listening",
		slog.String("addr", *addr),
		slog.String("metrics", "/metrics"),
		slog.String("traces", "/debug/traces"))
	// ReadHeaderTimeout/IdleTimeout keep slow or silent clients from
	// holding connections open indefinitely; WithRequestTimeout bounds
	// each request's block I/O when -request-timeout is set; the
	// admission middleware sits just inside tracing so shed requests are
	// traced (and counted by the HTTP metrics) but never reach the
	// router, the caches, or the fetch pools; WithTracing is outermost so
	// the root span covers the whole request.
	var inner http.Handler = telemetry.WithRequestTimeout(server, *requestTimeout)
	inner = admit.Middleware(inner)
	handler := telemetry.WithTracing(inner, traces,
		telemetry.TracingOptions{Service: "dashboard", SlowRequest: *slowRequest, Logger: logger, Flight: fl})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return telemetry.ServeUntilSignal(context.Background(), srv, logger, fl)
}

// summaryLoop emits a periodic structured operational summary so sweep
// logs capture hit rates and latency percentiles without scraping.
func summaryLoop(logger *slog.Logger, reg *telemetry.Registry, every time.Duration) {
	for range time.Tick(every) {
		logSummary(logger, reg)
	}
}

// logSummary condenses the registry into one structured log record.
func logSummary(logger *slog.Logger, reg *telemetry.Registry) {
	hits := reg.SumFamily("nsdf_cache_hits_total")
	misses := reg.SumFamily("nsdf_cache_misses_total")
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = 100 * hits / (hits + misses)
	}
	args := []any{
		slog.Float64("http_requests", reg.SumFamily("nsdf_http_requests_total")),
		slog.Float64("cache_hit_pct", hitRate),
		slog.Float64("blocks_read", reg.SumFamily("nsdf_idx_blocks_read_total")),
		slog.Float64("blocks_cached", reg.SumFamily("nsdf_idx_blocks_cached_total")),
		slog.Float64("bytes_read", reg.SumFamily("nsdf_idx_bytes_read_total")),
	}
	if p50, p95, p99, ok := reg.FamilyQuantiles("nsdf_http_request_seconds"); ok {
		args = append(args,
			slog.Float64("http_p50_ms", p50*1e3),
			slog.Float64("http_p95_ms", p95*1e3),
			slog.Float64("http_p99_ms", p99*1e3))
	}
	logger.Info("telemetry summary", args...)
}

// buildDemoDataset synthesises the tutorial's Tennessee scene in memory.
func buildDemoDataset(ctx context.Context) (*idx.Dataset, error) {
	d := dem.Tennessee(512, 256, 20240624)
	fields := make([]idx.Field, 0, len(geotiled.TutorialParams))
	for _, p := range geotiled.TutorialParams {
		fields = append(fields, idx.Field{Name: p.String(), Type: idx.Float32})
	}
	meta, err := idx.NewMeta([]int{512, 256}, fields)
	if err != nil {
		return nil, err
	}
	meta.Geo = d.Geo
	ds, err := idx.Create(ctx, idx.NewMemBackend(), meta)
	if err != nil {
		return nil, err
	}
	for _, p := range geotiled.TutorialParams {
		g, err := geotiled.ComputeTiled(d, p, geotiled.Options{})
		if err != nil {
			return nil, err
		}
		if err := ds.WriteGrid(ctx, p.String(), 0, g); err != nil {
			return nil, err
		}
	}
	return ds, nil
}
