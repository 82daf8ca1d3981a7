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
	"os"
	"strings"
	"time"

	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/serverkit"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
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

func run(fs *flag.FlagSet, args []string) error {
	opts := serverkit.Options{Service: "dashboard", NodeName: "dashboard", CacheMB: 64}
	opts.ProcessFlags(fs)
	opts.ServingFlags(fs)
	addr := fs.String("addr", ":8080", "listen address")
	demo := fs.Bool("demo", false, "synthesise and register a demo Tennessee dataset")
	summaryEvery := fs.Duration("summary-interval", 30*time.Second, "interval between one-line telemetry summaries (0 disables)")
	federateTimeout := fs.Duration("federate-timeout", dashboard.DefaultFederateTimeout, "per-peer fetch deadline for /debug/traces?federate=1 assembly (with -peers)")
	fs.StringVar(&opts.PeerToken, "peer-token", "", "bearer token for the sharded tier's stores (with -peers)")
	var data dataFlags
	fs.Var(&data, "data", "dataset as name=path/to/idx/dir, or name=key/prefix with -peers (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(data) == 0 && !*demo {
		return fmt.Errorf("nothing to serve: pass -data name=path or -demo")
	}
	k, err := serverkit.Start(opts)
	if err != nil {
		return err
	}
	ctx := context.Background()
	server := dashboard.NewServer()
	server.EnableTelemetry(k.Registry)
	server.EnableTracing(k.Traces)
	server.EnableFlightRecorder(k.Flight)
	server.SetLogger(k.Logger)
	// register exposes ds under name behind its own block cache.
	register := func(name string, ds *idx.Dataset) error {
		e, err := k.NewEngine(name, ds)
		if err != nil {
			return err
		}
		server.Register(name, e)
		k.Logger.Info("registered dataset",
			slog.String("dataset", name),
			slog.Int("width", ds.Meta.Dims[0]),
			slog.Int("height", ds.Meta.Dims[1]),
			slog.Int("fields", len(ds.Meta.Fields)),
			slog.Int("timesteps", ds.Meta.Timesteps))
		return nil
	}
	// With -peers the datasets live in the sharded block tier and each
	// -data spec names a key prefix inside it; without, each names a
	// directory, served by a FileStore rooted there. Either way the IDX
	// backend adapter sits on an instrumented storage.Store.
	var tier storage.Store
	if k.Peers != "" {
		router, targets, err := k.Tier(nil)
		if err != nil {
			return err
		}
		tier = storage.NewInstrumented(router, k.Registry, "shard")
		server.EnableFederation(targets, *federateTimeout)
	}
	for _, spec := range data {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -data %q (want name=path)", spec)
		}
		store, prefix := tier, path
		if tier == nil {
			dir, err := storage.NewFileStore(path)
			if err != nil {
				return err
			}
			store, prefix = storage.NewInstrumented(dir, k.Registry, "file"), ""
		}
		ds, err := idx.Open(ctx, storage.NewIDXBackend(store, prefix))
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		if err := register(name, ds); err != nil {
			return err
		}
	}
	if *demo {
		ds, err := buildDemoDataset(ctx)
		if err != nil {
			return fmt.Errorf("demo dataset: %w", err)
		}
		if err := register("tennessee_demo", ds); err != nil {
			return err
		}
	}
	if *summaryEvery > 0 {
		go summaryLoop(k.Logger, k.Registry, *summaryEvery)
	}
	return k.Serve(ctx, *addr, k.Handler(server))
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
