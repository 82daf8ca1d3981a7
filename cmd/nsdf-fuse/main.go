// Command nsdf-fuse is the NSDF-FUSE client: it moves files in and out of
// an object store through a mapping package, the way the FUSE mounts in
// the NSDF testbed do. The store may be a local directory or a running
// nsdf-store endpoint.
//
// Usage:
//
//	nsdf-fuse -store ./objects -mapping chunked put data/big.tif
//	nsdf-fuse -store http://localhost:9000 -token secret ls data/
//	nsdf-fuse -store ./objects get data/big.tif /tmp/out.tif
//	nsdf-fuse -store ./objects rm data/big.tif
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nsdfgo/internal/fusefs"
	"nsdfgo/internal/storage"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-fuse:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	storeSpec := fs.String("store", "", "object store: a directory path or an http(s):// endpoint")
	token := fs.String("token", "", "bearer token for private HTTP stores")
	mappingName := fs.String("mapping", "one-to-one", "mapping package: one-to-one, chunked, or compressed")
	chunkKB := fs.Int("chunk-kb", 1024, "chunk size in KiB for the chunked mapping")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeSpec == "" {
		return fmt.Errorf("-store is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no command (want ls, put, get, or rm)")
	}

	var store storage.Store
	if strings.HasPrefix(*storeSpec, "http://") || strings.HasPrefix(*storeSpec, "https://") {
		store = storage.NewClient(*storeSpec, *token)
	} else {
		dir, err := storage.NewFileStore(*storeSpec)
		if err != nil {
			return err
		}
		store = dir
	}
	var mapping fusefs.Mapping
	switch *mappingName {
	case "one-to-one":
		mapping = fusefs.OneToOne{}
	case "chunked":
		mapping = fusefs.Chunked{ChunkSize: *chunkKB << 10}
	case "compressed":
		mapping = fusefs.Compressed{}
	default:
		return fmt.Errorf("unknown mapping %q", *mappingName)
	}

	ctx := context.Background()
	args = fs.Args()
	switch args[0] {
	case "ls":
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		files, err := mapping.Files(ctx, store, prefix)
		if err != nil {
			return err
		}
		for _, f := range files {
			size := "?"
			if f.Size >= 0 {
				size = fmt.Sprint(f.Size)
			}
			fmt.Fprintf(stdout, "%12s  %s\n", size, f.Path)
		}
		return nil
	case "put":
		if len(args) < 2 {
			return fmt.Errorf("put needs a local file (and optional remote path)")
		}
		local := args[1]
		remote := local
		if len(args) > 2 {
			remote = args[2]
		}
		data, err := os.ReadFile(local)
		if err != nil {
			return err
		}
		if err := mapping.Write(ctx, store, remote, data); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "put %s -> %s (%d bytes, %s mapping)\n", local, remote, len(data), mapping.Name())
		return nil
	case "get":
		if len(args) < 3 {
			return fmt.Errorf("get needs a remote path and a local destination")
		}
		data, err := mapping.Read(ctx, store, args[1])
		if err != nil {
			return err
		}
		if err := os.WriteFile(args[2], data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "get %s -> %s (%d bytes)\n", args[1], args[2], len(data))
		return nil
	case "rm":
		if len(args) < 2 {
			return fmt.Errorf("rm needs a remote path")
		}
		if err := mapping.Remove(ctx, store, args[1]); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rm %s\n", args[1])
		return nil
	default:
		return fmt.Errorf("unknown command %q (want ls, put, get, or rm)", args[0])
	}
}
