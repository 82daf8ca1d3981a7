// Command nsdf-catalog runs or queries the NSDF-Catalog indexing service.
//
// Serve mode starts the HTTP API, optionally loading a JSON-lines
// catalog file:
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
	"net"
	"os"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/serverkit"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-catalog:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	opts := serverkit.Options{Service: "catalog", NodeName: "catalog"}
	opts.ProcessFlags(fs)
	serve := fs.Bool("serve", false, "run the HTTP catalog service")
	addr := fs.String("addr", ":7000", "listen address for -serve")
	remote := fs.String("remote", "", "query a running catalog service at this URL instead of a file")
	file := fs.String("file", "", "JSON-lines catalog file to load")
	search := fs.String("search", "", "search terms (query mode)")
	source := fs.String("source", "", "restrict to one source repository")
	typ := fs.String("type", "", "restrict to one data type")
	limit := fs.Int("limit", 20, "maximum results")
	stats := fs.Bool("stats", false, "print catalog statistics and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	query := catalog.Query{Terms: *search, Source: *source, Type: *typ, Limit: *limit}

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
		results, err := client.Search(ctx, query)
		if err != nil {
			return err
		}
		printResults(results)
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
		k, err := serverkit.Start(opts)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		return k.Serve(context.Background(), ln, k.CatalogHandler(cat))
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
		printResults(cat.Search(query))
		return nil
	default:
		return fmt.Errorf("nothing to do: pass -serve, -stats, or -search")
	}
}

func printResults(results []catalog.Record) {
	if len(results) == 0 {
		fmt.Println("no matches")
	}
	for _, r := range results {
		fmt.Printf("%-14s %-36s %-12s %-8s %10d B  %s\n", r.ID, r.Name, r.Source, r.Type, r.Size, r.Location)
	}
}
