// Command nsdf-store runs the object-storage service the tutorial's
// workflow uploads to and streams from. With -token it behaves like the
// private Seal Storage deployment (bearer-token auth); without, like a
// public endpoint. Storage is backed by a directory, so data survives
// restarts.
//
// Observability endpoints live beside the object API: /metrics exposes
// per-op counters and latency histograms, /debug/traces the most recent
// request traces (both stay reachable even when -token locks the object
// paths down), and -pprof-addr serves the Go profiler on a separate
// listener.
//
// With -peers the process joins a sharded, replicated tier: block keys
// place onto a consistent-hash ring spanning this node and its peers,
// writes replicate -replicas ways, and reads fail over (and, with
// -hedge-after, hedge) across replicas. Peer names are the ring
// identity and must be consistent fleet-wide. Peer traffic flows over
// the /internal/ plane (this node's local store, bypassing the
// router), which every nsdf-store mounts; -peers URLs are plain base
// URLs — the /internal suffix is appended automatically.
//
// Usage:
//
//	nsdf-store -addr :9000 -root ./objects -token secret
//	nsdf-store -addr :9001 -root ./objects-a -node-name a \
//	    -peers b=http://host2:9001,c=http://host3:9001 \
//	    -replicas 2 -hedge-after 30ms
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/cache"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-store:", err)
		os.Exit(1)
	}
}

// internalPlane is the path prefix of the leaf object plane every
// nsdf-store mounts: the same REST layout as the public plane but
// backed by the local store alone, bypassing the router. Peer routers
// (other nsdf-store nodes, nsdf-dashboard) replicate to it; routing
// peer traffic through a peer's own router would forward it again,
// and two replicas forwarding to each other never terminate.
const internalPlane = "/internal"

func run() error {
	addr := flag.String("addr", ":9000", "listen address")
	root := flag.String("root", "./objects", "object storage directory")
	token := flag.String("token", "", "bearer token; empty serves a public store")
	peers := flag.String("peers", "", "comma-separated name=url peers forming a sharded tier with this node (empty disables sharding)")
	nodeName := flag.String("node-name", "self", "this node's fleet-wide ring name (with -peers; must be consistent across the fleet)")
	replicaCount := flag.Int("replicas", 2, "replicas per block key across the sharded tier (with -peers)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fire a hedged read at the next replica after this delay; pick a p99-ish value (0 disables hedging)")
	cacheMB := flag.Int("cache-mb", 0, "in-memory object cache size in MiB (0 disables)")
	cacheDir := flag.String("cache-dir", "", "directory for an on-disk cache tier below memory (empty disables; contents are wiped at startup)")
	cacheDiskBytes := flag.Int64("cache-disk-bytes", 256<<20, "on-disk cache budget in bytes (with -cache-dir)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max concurrently served public-plane requests (0 disables the concurrency limiter)")
	maxQueue := flag.Int("max-queue", 64, "admission control: requests allowed to wait for a slot before shedding (with -max-inflight)")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "admission control: longest a queued request waits for a slot before 429 (with -max-inflight; 0 waits for the request deadline)")
	tenantRPS := flag.Float64("tenant-rps", 0, "admission control: per-tenant steady request rate in req/s, tenant from "+admission.TenantHeader+" or client address (0 disables rate limiting)")
	tenantBurst := flag.Float64("tenant-burst", 0, "admission control: per-tenant token-bucket burst (defaults to -tenant-rps)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed (429) responses")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline bounding store I/O (0 disables)")
	slowRequest := flag.Duration("slow-request", time.Second, "log a structured span summary for requests at least this slow (0 disables)")
	logFormat := flag.String("log-format", telemetry.LogFormatText, "log encoding: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	traceBuffer := flag.Int("trace-buffer", trace.DefaultCapacity, "completed traces retained for /debug/traces")
	flightBuffer := flag.Int("flight-buffer", flight.DefaultCapacity, "anomaly events retained for /debug/flightrecorder")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		return err
	}
	telemetry.SetLogger(logger)

	fileStore, err := storage.NewFileStore(*root)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	telemetry.RegisterBuildInfo(reg)
	traces := trace.NewCollector(*traceBuffer)
	traces.SetNode(*nodeName)
	fl := flight.New(*flightBuffer)
	fl.SetNode(*nodeName)
	// With -peers, this process becomes one node of a sharded tier: its
	// FileStore joins a consistent-hash ring with the peer stores, and
	// every request routes through shard.Router (replication, hedged
	// reads, failover). The router implements storage.Store, so the
	// cache and instrumentation layers below stack on it unchanged.
	//
	// Peers are dialled at their /internal/ leaf plane — the one backed
	// by the remote node's local store alone. Routing a replica write to
	// a peer's public (router-backed) plane would re-route it, and two
	// replicas forwarding to each other never terminate.
	var inner storage.Store = fileStore
	if *peers != "" {
		nodes, err := shard.ParsePeers(*peers, func(target string) storage.Store {
			return storage.NewClient(target+internalPlane, *token)
		})
		if err != nil {
			return err
		}
		nodes = append(nodes, shard.Node{Name: *nodeName, Store: fileStore})
		router, err := shard.NewRouter(nodes, shard.Options{Replicas: *replicaCount, HedgeAfter: *hedgeAfter})
		if err != nil {
			return err
		}
		router.Instrument(reg)
		router.SetFlight(fl)
		inner = router
		logger.Info("sharded tier enabled",
			slog.String("node", *nodeName),
			slog.Int("nodes", router.Ring().Len()),
			slog.Int("replicas", router.Replicas()),
			slog.Duration("hedge_after", *hedgeAfter))
	}
	// Layer the read-through cache (when enabled) under the
	// instrumentation, so /metrics latency histograms reflect what clients
	// actually experienced (hits included) while nsdf_cache_* series report
	// the cache's own effectiveness.
	if *cacheMB > 0 || *cacheDir != "" {
		opts := cache.Options{MemBytes: int64(*cacheMB) << 20}
		if *cacheDir != "" {
			opts.DiskDir = *cacheDir
			opts.DiskBytes = *cacheDiskBytes
		}
		tiered, err := cache.NewTiered(opts)
		if err != nil {
			return fmt.Errorf("object cache: %w", err)
		}
		tiered.Instrument(reg, "store")
		inner = storage.NewCached(inner, tiered)
	}
	backendLabel := "file"
	if *peers != "" {
		backendLabel = "shard"
	}
	store := storage.NewInstrumented(inner, reg, backendLabel)

	// Observability endpoints mount on the mux ahead of the object server
	// so they stay reachable (and unauthenticated) even with -token set.
	// The /internal/ plane serves this node's local store directly —
	// never the router — so peer routers have a leaf to replicate to;
	// it shares the public plane's bearer token.
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", traces.Handler())
	mux.Handle("/debug/flightrecorder", fl.Handler())
	mux.Handle(internalPlane+"/",
		http.StripPrefix(internalPlane,
			telemetry.WithRequestTimeout(storage.NewServer(fileStore, *token), *requestTimeout)))
	mux.Handle("/", telemetry.WithRequestTimeout(storage.NewServer(store, *token), *requestTimeout))

	// Admission control gates the public object plane: per-tenant rate
	// limiting plus a bounded-concurrency limiter shedding overflow as
	// 429 + Retry-After. The /internal/ replication plane, /metrics and
	// /debug/ stay exempt (middleware path exemptions), so peer
	// replication and operator visibility survive saturation.
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
		admit.Instrument(reg, "store")
		admit.SetFlight(fl)
		logger.Info("admission control enabled",
			slog.Int("max_inflight", *maxInflight),
			slog.Int("max_queue", *maxQueue),
			slog.Duration("queue_timeout", *queueTimeout),
			slog.Float64("tenant_rps", *tenantRPS))
	}

	mode := "public"
	if *token != "" {
		mode = "private"
	}
	if *pprofAddr != "" {
		go telemetry.ServePprof(logger, *pprofAddr)
	}
	logger.Info("object store listening",
		slog.String("addr", *addr),
		slog.String("root", *root),
		slog.String("mode", mode),
		slog.String("metrics", "/metrics"),
		slog.String("traces", "/debug/traces"))
	srv := &http.Server{
		Addr: *addr,
		Handler: telemetry.WithTracing(admit.Middleware(mux), traces,
			telemetry.TracingOptions{Service: "store", SlowRequest: *slowRequest, Logger: logger, Flight: fl}),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return telemetry.ServeUntilSignal(context.Background(), srv, logger, fl)
}
