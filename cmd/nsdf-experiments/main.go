// Command nsdf-experiments regenerates the paper's tables and figures
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Usage:
//
//	nsdf-experiments -run all
//	nsdf-experiments -run fig5
//	nsdf-experiments -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"nsdfgo/internal/experiments"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-experiments:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	id := fs.String("run", "all", "experiment id (see -list) or all")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	runners := experiments.Runners()
	if *list {
		for _, r := range runners {
			fmt.Fprintln(stdout, r.ID)
		}
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *id == "all" {
		_, err := experiments.All(ctx, stdout)
		return err
	}
	for _, r := range runners {
		if r.ID == *id {
			_, err := r.Run(ctx, stdout)
			return err
		}
	}
	return fmt.Errorf("unknown experiment %q (try -list)", *id)
}
