// Command nsdf-catalog runs or queries the NSDF-Catalog indexing service.
//
// Serve mode starts the HTTP API, optionally loading and persisting a
// JSON-lines catalog file:
//
//	nsdf-catalog -serve -addr :7000 -file catalog.jsonl
//
// Query mode searches a catalog file directly, or a running service with
// -remote:
//
//	nsdf-catalog -file catalog.jsonl -search "terrain tennessee" -source dataverse
//	nsdf-catalog -remote http://localhost:7000 -search "terrain"
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-catalog:", err)
		os.Exit(1)
	}
}

func run() error {
	serve := flag.Bool("serve", false, "run the HTTP catalog service")
	addr := flag.String("addr", ":7000", "listen address for -serve")
	remote := flag.String("remote", "", "query a running catalog service at this URL instead of a file")
	file := flag.String("file", "", "JSON-lines catalog file to load")
	search := flag.String("search", "", "search terms (query mode)")
	source := flag.String("source", "", "restrict to one source repository")
	typ := flag.String("type", "", "restrict to one data type")
	limit := flag.Int("limit", 20, "maximum results")
	stats := flag.Bool("stats", false, "print catalog statistics and exit")
	logFormat := flag.String("log-format", telemetry.LogFormatText, "log encoding for -serve: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address while serving (empty disables)")
	flag.Parse()

	if *remote != "" {
		client := catalog.NewClient(*remote)
		ctx := context.Background()
		if *stats {
			s, err := client.Stats(ctx)
			if err != nil {
				return err
			}
			fmt.Printf("records: %d\ntokens: %d\ntotal bytes: %d\n", s.Records, s.Tokens, s.TotalBytes)
			return nil
		}
		results, err := client.Search(ctx, catalog.Query{Terms: *search, Source: *source, Type: *typ, Limit: *limit})
		if err != nil {
			return err
		}
		if len(results) == 0 {
			fmt.Println("no matches")
			return nil
		}
		for _, r := range results {
			fmt.Printf("%-14s %-36s %-12s %-8s %10d B  %s\n", r.ID, r.Name, r.Source, r.Type, r.Size, r.Location)
		}
		return nil
	}

	cat := catalog.New()
	if *file != "" {
		f, err := os.Open(*file)
		if err == nil {
			loaded, lerr := catalog.Load(f)
			cerr := f.Close()
			if lerr != nil {
				return lerr
			}
			if cerr != nil {
				return cerr
			}
			cat = loaded
			fmt.Fprintf(os.Stderr, "loaded %d records from %s\n", cat.Len(), *file)
		} else if !os.IsNotExist(err) {
			return err
		}
	}

	switch {
	case *serve:
		logger, err := telemetry.NewLogger(os.Stderr, *logFormat)
		if err != nil {
			return err
		}
		telemetry.SetLogger(logger)
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		telemetry.RegisterBuildInfo(reg)
		srv := catalog.NewServer(cat)
		srv.EnableTelemetry(reg)
		// The anomaly flight recorder is mounted ahead of the catalog
		// routes so every server in the fleet answers
		// /debug/flightrecorder, even ones with few anomaly sources.
		fl := flight.New(0)
		fl.SetNode("catalog")
		mux := http.NewServeMux()
		mux.Handle("/debug/flightrecorder", fl.Handler())
		mux.Handle("/", srv)
		if *pprofAddr != "" {
			go telemetry.ServePprof(logger, *pprofAddr)
		}
		logger.Info("catalog service listening",
			slog.String("addr", *addr),
			slog.Int("records", cat.Len()),
			slog.String("metrics", "/metrics"))
		hs := &http.Server{
			Addr:              *addr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		return hs.ListenAndServe()
	case *stats:
		s := cat.Stats()
		fmt.Printf("records: %d\ntokens: %d\ntotal bytes: %d\n", s.Records, s.Tokens, s.TotalBytes)
		for src, n := range s.BySource {
			fmt.Printf("source %-20s %d\n", src, n)
		}
		for t, n := range s.ByType {
			fmt.Printf("type   %-20s %d\n", t, n)
		}
		return nil
	case *search != "" || *source != "" || *typ != "":
		results := cat.Search(catalog.Query{Terms: *search, Source: *source, Type: *typ, Limit: *limit})
		if len(results) == 0 {
			fmt.Println("no matches")
			return nil
		}
		for _, r := range results {
			fmt.Printf("%-14s %-36s %-12s %-8s %10d B  %s\n", r.ID, r.Name, r.Source, r.Type, r.Size, r.Location)
		}
		return nil
	default:
		return fmt.Errorf("nothing to do: pass -serve, -stats, or -search")
	}
}
