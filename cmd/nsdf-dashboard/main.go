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
	"net"
	"os"
	"strings"

	"nsdfgo/internal/convert"
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
	fs.IntVar(&opts.CacheMB, "cache-mb", opts.CacheMB, "in-memory cache size in MiB, per dataset (0 disables)")
	fs.StringVar(&opts.Cache.DiskDir, "cache-dir", "", "directory for an on-disk cache tier below memory (empty disables; contents are wiped at startup)")
	fs.Int64Var(&opts.Cache.DiskBytes, "cache-disk-bytes", 256<<20, "on-disk cache budget in bytes, per dataset (with -cache-dir)")
	addr := fs.String("addr", ":8080", "listen address")
	demo := fs.Bool("demo", false, "synthesise and register a demo Tennessee dataset")
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
	server, h, err := k.DashboardHandler(ctx, data, *federateTimeout)
	if err != nil {
		return err
	}
	if *demo {
		ds, err := buildDemoDataset(ctx, k.Registry)
		if err != nil {
			return fmt.Errorf("demo dataset: %w", err)
		}
		e, err := k.NewEngine("tennessee_demo", ds)
		if err != nil {
			return err
		}
		server.Register("tennessee_demo", e)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	return k.Serve(ctx, ln, h)
}

// buildDemoDataset synthesises the tutorial's Tennessee scene in an
// instrumented memory store, so the demo's block I/O shows up as
// nsdf_storage_ops_total{backend="mem"} like any other dataset's.
func buildDemoDataset(ctx context.Context, reg *telemetry.Registry) (*idx.Dataset, error) {
	d := dem.Tennessee(512, 256, 20240624)
	inputs := make([]convert.Input, 0, len(geotiled.TutorialParams))
	for _, p := range geotiled.TutorialParams {
		g, err := geotiled.ComputeTiled(d, p, geotiled.Options{})
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, convert.Input{FieldName: p.String(), Grid: g})
	}
	be := storage.NewIDXBackend(storage.NewInstrumented(storage.NewMemStore(), reg, "mem"), "")
	return convert.ToIDXWith(ctx, be, inputs, convert.IDXOptions{})
}
