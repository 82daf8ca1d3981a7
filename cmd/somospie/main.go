// Command somospie runs the SOMOSPIE soil-moisture workflow on the NSDF
// fabric: GEOtiled terrain covariates → synthetic satellite truth and
// sparse observations (published to Dataverse as NetCDF) → model
// competition (kNN / IDW / OLS) → gridded downscaled product published as
// an IDX dataset.
//
// Usage:
//
//	somospie -width 256 -height 160 -observations 2000 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/core"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/metrics"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/somospie"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "somospie:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	width := fs.Int("width", 192, "region width in pixels")
	height := fs.Int("height", 128, "region height in pixels")
	observations := fs.Int("observations", 1200, "sparse observation count")
	testFrac := fs.Float64("test-fraction", 0.25, "held-out fraction for evaluation")
	seed := fs.Uint64("seed", 20240624, "synthesis seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fabric := core.NewFabric()
	w, err := fabric.MoistureWorkflow(core.MoistureConfig{
		Width: *width, Height: *height, Seed: *seed,
		Observations: *observations, TestFraction: *testFrac,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "running SOMOSPIE workflow: %dx%d, %d observations, seed %d\n\n",
		*width, *height, *observations, *seed)
	bb, trail, err := w.Run(context.Background())
	fmt.Fprintln(stdout, "provenance trail:")
	fmt.Fprint(stdout, trail.String())
	if err != nil {
		return err
	}

	reports, _ := core.Fetch[[]somospie.EvalReport](bb, core.KeyEvaluations)
	fmt.Fprintln(stdout, "\nmodel competition (held-out evaluation):")
	for _, rep := range reports {
		fmt.Fprintf(stdout, "  %s\n", rep)
	}
	best, _ := core.Fetch[string](bb, core.KeyBestModel)
	fmt.Fprintf(stdout, "winner: %s\n", best)

	pred, _ := core.Fetch[*raster.Grid](bb, core.KeyPrediction)
	truth, _ := core.Fetch[*raster.Grid](bb, core.KeyTruth)
	rep, err := metrics.Compare(truth.Data, pred.Data, truth.W, truth.H)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ngridded product vs truth: %s\n", rep)

	doi, _ := core.Fetch[string](bb, core.KeyDOI)
	fmt.Fprintf(stdout, "\nobservation product: %s (NetCDF on Dataverse)\n", doi)
	ds, _ := core.Fetch[*idx.Dataset](bb, core.KeyDataset)
	fmt.Fprintf(stdout, "gridded product: IDX, %d fields, %d levels\n", len(ds.Meta.Fields), ds.Meta.MaxLevel())
	fmt.Fprintln(stdout, "catalog records:")
	for _, r := range fabric.Catalog.Search(catalog.Query{Terms: "moisture", Limit: 10}) {
		fmt.Fprintf(stdout, "  %-24s %-12s %9d B  %s\n", r.Name, r.Source, r.Size, r.Location)
	}
	return nil
}
