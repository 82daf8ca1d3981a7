// Package serverkit is the one place a fabric serving process is
// assembled. nsdf-dashboard, nsdf-store, nsdf-catalog and nsdf-netmon
// fill an Options (the flags they share are declared here, once), Start
// the process plumbing, build their handler with StoreHandler,
// DashboardHandler or CatalogHandler, and serve it on a listener of
// their own through Serve, so every service comes up, sheds load and
// shuts down the same way — in its binary and in a test alike.
package serverkit

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/cache"
	"nsdfgo/internal/catalog"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

// internalPlane is the path prefix of the leaf object plane every
// nsdf-store mounts: the public REST layout over the node's local store
// alone. Tier dials peers there, because a replica write sent to a
// peer's router-backed public plane is routed again, and two replicas
// forwarding to each other never terminate.
const internalPlane = "/internal"

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
	// CacheMB is each NewEngine cache's memory budget in MiB, the
	// -cache-mb unit; it stands in for Cache.MemBytes. No shared flag
	// binds it or Cache: the dashboard, the one service that builds
	// caches, declares them.
	CacheMB int
	Cache   cache.Options
}

// ProcessFlags binds the two flags every service takes into o's fields.
func (o *Options) ProcessFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.LogFormat, "log-format", telemetry.LogFormatText, "log encoding: text or json")
	fs.StringVar(&o.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
}

// ServingFlags binds the fourteen more a data server takes. The
// default that differs per service, -node-name, is the value o already
// holds.
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

// Start builds the plumbing: the logger, a registry with the runtime
// and build-info series, collector and recorder stamped with the node
// name, the admission controller, and the opt-in profiler — on a
// listener of its own, so it is never reachable from a data-serving
// port.
func Start(o Options) (*Kit, error) {
	logger, err := telemetry.NewLogger(os.Stderr, o.LogFormat)
	if err != nil {
		return nil, err
	}
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
	targets := make(map[string]string)
	nodes, err := shard.ParsePeers(k.Peers, func(name, target string) storage.Store {
		targets[name] = target
		return storage.NewClient(target+internalPlane, k.PeerToken)
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
	return router, targets, nil
}

// NewEngine wraps ds in a query engine over a tiered cache of CacheMB
// and hands its fetch pool the admission limiter's pressure. The disk
// tier wipes its directory at startup, so each name gets its own
// subdirectory of Cache.DiskDir. Pressure only shrinks a fan-out the
// embedding program raised with SetFetchParallelism; nothing here does,
// so block fetches are serial (ROADMAP 4(c)).
func (k *Kit) NewEngine(name string, ds *idx.Dataset) (*query.Engine, error) {
	opts := k.Cache
	opts.MemBytes = int64(k.CacheMB) << 20
	if opts.DiskDir != "" {
		opts.DiskDir = filepath.Join(opts.DiskDir, name)
	}
	blocks, err := cache.NewTiered(opts)
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

// StoreHandler assembles nsdf-store over a FileStore rooted at root.
// With Peers the node joins the sharded tier: its FileStore joins the
// ring under NodeName and every public request routes through the tier.
// The internal plane serves the local store — never the router — so
// peer routers have a leaf to replicate to. The operator endpoints stay
// reachable, unauthenticated, even with a PeerToken.
func (k *Kit) StoreHandler(root string) (http.Handler, error) {
	fileStore, err := storage.NewFileStore(root)
	if err != nil {
		return nil, err
	}
	var public storage.Store = fileStore
	backend := "file"
	if k.Peers != "" {
		if public, _, err = k.Tier(fileStore); err != nil {
			return nil, err
		}
		backend = "shard"
	}
	mux := k.DebugMux()
	mux.Handle(internalPlane+"/", http.StripPrefix(internalPlane, storage.NewServer(fileStore, k.PeerToken)))
	mux.Handle("/", storage.NewServer(storage.NewInstrumented(public, k.Registry, backend), k.PeerToken))
	return k.Handler(mux), nil
}

// DashboardHandler assembles nsdf-dashboard over the datasets named by
// data, each a name=path spec. With Peers the datasets live in the
// sharded tier and each path is a key prefix inside it, and
// /debug/traces?federate=1 fans out to the peers with federateTimeout
// per peer; without, each path is a directory served by a FileStore.
// Either way the IDX adapter sits on an instrumented storage.Store and
// each dataset gets its own NewEngine. A name also names the dataset's
// cache directory, so one that is empty, repeated, or more than one
// local path element is refused before its dataset is opened or its
// cache built. The server is returned for the caller to register more
// datasets on.
func (k *Kit) DashboardHandler(ctx context.Context, data []string, federateTimeout time.Duration) (*dashboard.Server, http.Handler, error) {
	server := dashboard.NewServer()
	server.EnableTelemetry(k.Registry)
	server.EnableTracing(k.Traces)
	server.EnableFlightRecorder(k.Flight)
	server.SetLogger(k.Logger)
	var tier storage.Store
	if k.Peers != "" {
		router, targets, err := k.Tier(nil)
		if err != nil {
			return nil, nil, err
		}
		tier = storage.NewInstrumented(router, k.Registry, "shard")
		server.EnableFederation(targets, federateTimeout)
	}
	seen := make(map[string]bool, len(data))
	for _, spec := range data {
		name, path, ok := strings.Cut(spec, "=")
		switch {
		case !ok:
			return nil, nil, fmt.Errorf("bad -data %q (want name=path)", spec)
		case name == "." || filepath.Base(name) != name || !filepath.IsLocal(name):
			return nil, nil, fmt.Errorf("bad -data %q: the name must be one path element, it names the dataset's cache directory", spec)
		case seen[name]:
			return nil, nil, fmt.Errorf("bad -data %q: dataset %s is given twice", spec, name)
		}
		seen[name] = true
		store, prefix := tier, path
		if tier == nil {
			dir, err := storage.NewFileStore(path)
			if err != nil {
				return nil, nil, err
			}
			store, prefix = storage.NewInstrumented(dir, k.Registry, "file"), ""
		}
		ds, err := idx.Open(ctx, storage.NewIDXBackend(store, prefix))
		if err != nil {
			return nil, nil, fmt.Errorf("open %s: %w", path, err)
		}
		e, err := k.NewEngine(name, ds)
		if err != nil {
			return nil, nil, err
		}
		server.Register(name, e)
		k.Logger.Info("registered dataset",
			slog.String("dataset", name),
			slog.Int("width", ds.Meta.Dims[0]),
			slog.Int("height", ds.Meta.Dims[1]),
			slog.Int("fields", len(ds.Meta.Fields)),
			slog.Int("timesteps", ds.Meta.Timesteps))
	}
	return server, k.Handler(server), nil
}

// CatalogHandler serves cat behind the kit's middleware, so catalog
// requests are traced, admitted and bounded like every other service's.
// The operator endpoints mount ahead of the catalog routes, so every
// server in the fleet answers /debug/flightrecorder, even one with few
// anomaly sources.
func (k *Kit) CatalogHandler(cat *catalog.Catalog) http.Handler {
	srv := catalog.NewServer(cat)
	srv.EnableTelemetry(k.Registry)
	mux := k.DebugMux()
	mux.Handle("/", srv)
	return k.Handler(mux)
}

// Serve runs h on ln until ln fails, the process is told to stop
// (SIGINT/SIGTERM) or ctx is cancelled, then drains connections for up
// to five seconds. ln is closed on return. Every exit first dumps the
// flight recorder — the anomaly ring's last chance to reach the logs.
// The header and idle timeouts keep slow or silent clients from
// holding connections open; the drain closes those that have carried no
// request yet (an http.Transport dials ahead), which Shutdown would wait
// on until their header timeout, the whole drain budget.
func (k *Kit) Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	var mu sync.Mutex
	fresh, draining := map[net.Conn]bool{}, false
	srv.ConnState = func(c net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case s != http.StateNew:
			delete(fresh, c)
		case draining:
			c.Close() //lint:allow droppederr it has served no request
		default:
			fresh[c] = true
		}
	}
	k.Logger.Info("listening", slog.String("service", k.Service), slog.String("addr", ln.Addr().String()))
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
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
	mu.Lock()
	draining = true
	for c := range fresh {
		c.Close() //lint:allow droppederr it has served no request
	}
	mu.Unlock()
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	return srv.Shutdown(drain)
}
