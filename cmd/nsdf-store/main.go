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
	"net/http"
	"os"

	"nsdfgo/internal/serverkit"
	"nsdfgo/internal/storage"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-store:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	opts := serverkit.Options{Service: "store", NodeName: "self"}
	opts.ProcessFlags(fs)
	opts.ServingFlags(fs)
	addr := fs.String("addr", ":9000", "listen address")
	root := fs.String("root", "./objects", "object storage directory")
	// The fleet shares one token: it guards this node's planes and
	// authenticates this node to its peers'.
	fs.StringVar(&opts.PeerToken, "token", "", "bearer token; empty serves a public store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := serverkit.Start(opts)
	if err != nil {
		return err
	}
	fileStore, err := storage.NewFileStore(*root)
	if err != nil {
		return err
	}
	// With -peers this process is one node of a sharded tier: its
	// FileStore joins the ring with the peer stores and every public
	// request routes through the tier.
	var inner storage.Store = fileStore
	backend := "file"
	if k.Peers != "" {
		if inner, _, err = k.Tier(fileStore); err != nil {
			return err
		}
		backend = "shard"
	}
	// The read-through cache (when enabled) sits under the
	// instrumentation, so the latency histograms reflect what clients
	// experienced (hits included) while nsdf_cache_* reports the cache's
	// own effectiveness.
	if k.CacheMB > 0 || k.Cache.DiskDir != "" {
		tiered, err := k.NewCache("")
		if err != nil {
			return fmt.Errorf("object cache: %w", err)
		}
		tiered.Instrument(k.Registry, "store")
		inner = storage.NewCached(inner, tiered)
	}
	store := storage.NewInstrumented(inner, k.Registry, backend)

	// The operator endpoints stay reachable, unauthenticated, even with
	// -token set. The internal plane serves the local store — never the
	// router — so peer routers have a leaf to replicate to.
	mux := k.DebugMux()
	mux.Handle(serverkit.InternalPlane+"/",
		http.StripPrefix(serverkit.InternalPlane, storage.NewServer(fileStore, k.PeerToken)))
	mux.Handle("/", storage.NewServer(store, k.PeerToken))
	return k.Serve(context.Background(), *addr, k.Handler(mux))
}
