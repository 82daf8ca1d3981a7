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
	"net"
	"os"

	"nsdfgo/internal/serverkit"
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
	h, err := k.StoreHandler(*root)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	return k.Serve(context.Background(), ln, h)
}
