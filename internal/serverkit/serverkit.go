// Package serverkit is the one place a fabric serving process is
// assembled. nsdf-dashboard, nsdf-store, nsdf-catalog and nsdf-netmon
// fill an Options (the flags they share are declared here, once), Start
// the process plumbing, and serve through Handler and Serve, so every
// service comes up, sheds load and shuts down the same way.
package serverkit

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/cache"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

// InternalPlane is the path prefix of the leaf object plane every
// nsdf-store mounts: the public REST layout over the node's local store
// alone. Tier dials peers there, because a replica write sent to a
// peer's router-backed public plane is routed again, and two replicas
// forwarding to each other never terminate.
const InternalPlane = "/internal"

// Options configures a serving process. It is plain data: a main binds
// flags into it, any other caller fills the fields.
type Options struct {
	// Service labels logs, root spans and the admission series.
	Service string
	// NodeName is stamped on every span and flight event; in a Peers
	// fleet it is also this node's ring identity.
	NodeName                    string
	LogFormat, PprofAddr        string
	TraceBuffer, FlightBuffer   int
	SlowRequest, RequestTimeout time.Duration
	// Admission gates Handler; with MaxConcurrent and TenantRate both 0
	// there is no controller.
	Admission admission.Options
	// Peers lists the sharded tier's stores (shard.ParsePeers syntax),
	// PeerToken is their bearer token.
	Peers, PeerToken string
	Shard            shard.Options
	// CacheMB is each NewCache's memory budget in MiB, the -cache-mb
	// unit; it stands in for Cache.MemBytes.
	CacheMB int
	Cache   cache.Options
}

// ProcessFlags binds the two flags every service takes into o's fields.
func (o *Options) ProcessFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.LogFormat, "log-format", telemetry.LogFormatText, "log encoding: text or json")
	fs.StringVar(&o.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
}

// ServingFlags binds the seventeen more a data server takes. The two
// defaults that differ per service, -node-name and -cache-mb, are the
// values o already holds.
func (o *Options) ServingFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.NodeName, "node-name", o.NodeName, "this process's node name, stamped on every span and flight event; with -peers on nsdf-store also its ring name, which must be consistent fleet-wide")
	fs.IntVar(&o.TraceBuffer, "trace-buffer", trace.DefaultCapacity, "completed traces retained for /debug/traces")
	fs.IntVar(&o.FlightBuffer, "flight-buffer", flight.DefaultCapacity, "anomaly events retained for /debug/flightrecorder")
	fs.DurationVar(&o.SlowRequest, "slow-request", time.Second, "log a structured span summary for requests at least this slow (0 disables)")
	fs.DurationVar(&o.RequestTimeout, "request-timeout", 0, "per-request deadline bounding all backend I/O (0 disables)")
	fs.IntVar(&o.Admission.MaxConcurrent, "max-inflight", 0, "admission control: max concurrently served requests (0 disables the concurrency limiter)")
	fs.IntVar(&o.Admission.MaxQueue, "max-queue", 64, "admission control: requests allowed to wait for a slot before shedding (with -max-inflight)")
	fs.DurationVar(&o.Admission.QueueTimeout, "queue-timeout", 2*time.Second, "admission control: longest a queued request waits for a slot before 429 (with -max-inflight; 0 waits for the request deadline)")
	fs.Float64Var(&o.Admission.TenantRate, "tenant-rps", 0, "admission control: per-tenant steady request rate in req/s, tenant from "+admission.TenantHeader+" or client address (0 disables rate limiting)")
	fs.Float64Var(&o.Admission.TenantBurst, "tenant-burst", 0, "admission control: per-tenant token-bucket burst (defaults to -tenant-rps)")
	fs.DurationVar(&o.Admission.RetryAfter, "retry-after", time.Second, "Retry-After hint attached to shed (429) responses")
	fs.StringVar(&o.Peers, "peers", "", "comma-separated name=url store nodes forming the sharded block tier (empty disables sharding)")
	fs.IntVar(&o.Shard.Replicas, "replicas", 2, "replicas per block key across the sharded tier (with -peers)")
	fs.DurationVar(&o.Shard.HedgeAfter, "hedge-after", 0, "fire a hedged read at the next replica after this delay; pick a p99-ish value (0 disables hedging)")
	fs.IntVar(&o.CacheMB, "cache-mb", o.CacheMB, "in-memory cache size in MiB, per dataset on nsdf-dashboard (0 disables)")
	fs.StringVar(&o.Cache.DiskDir, "cache-dir", "", "directory for an on-disk cache tier below memory (empty disables; contents are wiped at startup)")
	fs.Int64Var(&o.Cache.DiskBytes, "cache-disk-bytes", 256<<20, "on-disk cache budget in bytes, per dataset on nsdf-dashboard (with -cache-dir)")
}

// Kit is a started process: its Options and the plumbing every layer
// reports into. Admit is nil when Options.Admission sets no limit.
type Kit struct {
	Options
	Logger   *slog.Logger
	Registry *telemetry.Registry
	Traces   *trace.Collector
	Flight   *flight.Recorder
	Admit    *admission.Controller
}

// Start builds the plumbing: the logger (also telemetry's package
// logger), a registry with the runtime and build-info series, collector
// and recorder stamped with the node name, the admission controller,
// and the opt-in profiler — on a listener of its own, so it is never
// reachable from a data-serving port.
func Start(o Options) (*Kit, error) {
	logger, err := telemetry.NewLogger(os.Stderr, o.LogFormat)
	if err != nil {
		return nil, err
	}
	telemetry.SetLogger(logger)
	k := &Kit{Options: o, Logger: logger, Registry: telemetry.NewRegistry(),
		Traces: trace.NewCollector(o.TraceBuffer), Flight: flight.New(o.FlightBuffer)}
	telemetry.RegisterRuntimeMetrics(k.Registry)
	telemetry.RegisterBuildInfo(k.Registry)
	k.Traces.SetNode(o.NodeName)
	k.Flight.SetNode(o.NodeName)
	if o.Admission.MaxConcurrent > 0 || o.Admission.TenantRate > 0 {
		k.Admit = admission.NewController(o.Admission)
		k.Admit.Instrument(k.Registry, o.Service)
		k.Admit.SetFlight(k.Flight)
		logger.Info("admission control enabled",
			slog.Int("max_inflight", o.Admission.MaxConcurrent),
			slog.Int("max_queue", o.Admission.MaxQueue),
			slog.Duration("queue_timeout", o.Admission.QueueTimeout),
			slog.Float64("tenant_rps", o.Admission.TenantRate))
	}
	if o.PprofAddr != "" {
		logger.Info("pprof listening", slog.String("addr", o.PprofAddr), slog.String("path", "/debug/pprof/"))
		srv := &http.Server{Addr: o.PprofAddr, Handler: telemetry.PprofMux(), ReadHeaderTimeout: 5 * time.Second}
		go func() { logger.Error("pprof server failed", slog.String("error", srv.ListenAndServe().Error())) }()
	}
	return k, nil
}

// Tier builds the sharded block tier over Peers: replication, hedged
// reads and failover behind one storage.Store, so caches, instruments
// and the IDX adapter stack on it unchanged. local, when non-nil, joins
// the ring under NodeName. The map is peer name → base URL, where a
// peer's debug endpoints live.
func (k *Kit) Tier(local storage.Store) (storage.Store, map[string]string, error) {
	nodes, err := shard.ParsePeers(k.Peers, func(target string) storage.Store {
		return storage.NewClient(target+InternalPlane, k.PeerToken)
	})
	if err != nil {
		return nil, nil, err
	}
	if local != nil {
		nodes = append(nodes, shard.Node{Name: k.NodeName, Store: local})
	}
	router, err := shard.NewRouter(nodes, k.Shard)
	if err != nil {
		return nil, nil, err
	}
	router.Instrument(k.Registry)
	router.SetFlight(k.Flight)
	k.Logger.Info("sharded block tier enabled",
		slog.String("node", k.NodeName),
		slog.Int("nodes", router.Ring().Len()),
		slog.Int("replicas", router.Replicas()),
		slog.Duration("hedge_after", k.Shard.HedgeAfter))
	targets, err := shard.PeerTargets(k.Peers)
	return router, targets, err
}

// NewCache builds one tiered cache of CacheMB. Each name gets its own
// subdirectory of Cache.DiskDir, because the disk tier wipes its
// directory at startup; the empty name uses DiskDir itself.
func (k *Kit) NewCache(name string) (*cache.Tiered, error) {
	opts := k.Cache
	opts.MemBytes = int64(k.CacheMB) << 20
	if opts.DiskDir != "" {
		opts.DiskDir = filepath.Join(opts.DiskDir, name)
	}
	return cache.NewTiered(opts)
}

// NewEngine wraps ds in a query engine over its own NewCache and hands
// its fetch pool the admission limiter's pressure. Pressure only shrinks
// a fan-out the embedding program raised with SetFetchParallelism;
// nothing here does, so block fetches are serial (ROADMAP 2(f)).
func (k *Kit) NewEngine(name string, ds *idx.Dataset) (*query.Engine, error) {
	blocks, err := k.NewCache(name)
	if err != nil {
		return nil, fmt.Errorf("cache for %s: %w", name, err)
	}
	e := query.NewWithCache(ds, blocks)
	if k.Admit != nil {
		e.SetFetchPressure(k.Admit.Pressure)
	}
	return e, nil
}

// DebugMux returns a mux serving the operator endpoints, for a service
// to mount its own routes beside. Admission exempts all three, and a
// server that authenticates its data routes leaves them open.
func (k *Kit) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", k.Registry.Handler())
	mux.Handle("/debug/traces", k.Traces.Handler())
	mux.Handle("/debug/flightrecorder", k.Flight.Handler())
	return mux
}

// Handler wraps h in the serving middleware, outermost first:
//
//	tracing → admission → request timeout → h
//
// Tracing is outermost so the root span covers the whole request and a
// shed request is still traced, answered with its X-NSDF-Trace-Id and
// counted. Admission sits just inside it, so a shed request never
// reaches a router, a cache or a fetch pool; it exempts /metrics,
// /healthz, /debug/ and /internal/ itself, so operators and peer
// replication get through a saturated server. The deadline is
// innermost: it bounds the handler's backend I/O, not the wait for a
// slot, which Admission.QueueTimeout bounds.
func (k *Kit) Handler(h http.Handler) http.Handler {
	h = k.Admit.Middleware(telemetry.WithRequestTimeout(h, k.RequestTimeout))
	return telemetry.WithTracing(h, k.Traces, telemetry.TracingOptions{
		Service: k.Service, SlowRequest: k.SlowRequest, Logger: k.Logger, Flight: k.Flight})
}

// Serve runs h on addr until the listener fails, the process is told to
// stop (SIGINT/SIGTERM) or ctx is cancelled, then drains connections
// for up to five seconds. Every exit first dumps the flight recorder —
// the anomaly ring's last chance to reach the logs. The header and idle
// timeouts keep slow or silent clients from holding connections open.
func (k *Kit) Serve(ctx context.Context, addr string, h http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	k.Logger.Info("listening", slog.String("service", k.Service), slog.String("addr", addr))
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		k.Flight.Dump(k.Logger)
		return err
	case sig := <-stop:
		k.Logger.Info("shutting down", slog.String("signal", sig.String()))
	case <-ctx.Done():
		k.Logger.Info("shutting down", slog.String("cause", ctx.Err().Error()))
	}
	k.Flight.Dump(k.Logger)
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	return srv.Shutdown(drain)
}
