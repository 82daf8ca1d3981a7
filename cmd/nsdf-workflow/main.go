// Command nsdf-workflow runs the tutorial's four-step modular workflow
// (Fig. 4) end to end on an in-memory NSDF fabric and prints the
// provenance trail, the published Dataverse record, the storage
// footprints, the validation metrics, a progressive zoom through the
// step-4 query engine, and the catalog contents — the CLI equivalent of
// the tutorial notebooks.
//
// Usage:
//
//	nsdf-workflow -region tennessee -width 1024 -height 512 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/core"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/metrics"
	"nsdfgo/internal/query"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-workflow:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	region := fs.String("region", "tennessee", "scene: tennessee or conus")
	width := fs.Int("width", 512, "scene width")
	height := fs.Int("height", 256, "scene height")
	seed := fs.Uint64("seed", 20240624, "synthesis seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fabric := core.NewFabric()
	wf, err := fabric.TutorialWorkflow(core.TutorialConfig{
		Region: *region, Width: *width, Height: *height, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "running four-step workflow: region=%s %dx%d seed=%d\n\n", *region, *width, *height, *seed)
	bb, trail, err := wf.Run(context.Background())
	fmt.Fprintln(stdout, "provenance trail:")
	fmt.Fprint(stdout, trail.String())
	if err != nil {
		return err
	}

	doi, _ := core.Fetch[string](bb, core.KeyDOI)
	info, err := fabric.Dataverse.Info(doi)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\npublished to Dataverse as %s: %q (v%d) with files %v\n", doi, info.Meta.Title, info.Version, info.Files)

	tiffBytes, _ := core.Fetch[map[string]int64](bb, core.KeyTIFFBytes)
	idxBytes, _ := core.Fetch[map[string]int64](bb, core.KeyIDXBytes)
	reports, _ := core.Fetch[map[string]metrics.Report](bb, core.KeyValidation)
	names := make([]string, 0, len(tiffBytes))
	for n := range tiffBytes {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(stdout, "\nconversion and validation (step 2 + 3):")
	var tiffTotal, idxTotal int64
	for _, n := range names {
		rep := reports[n]
		fmt.Fprintf(stdout, "  %-10s TIFF %9d B -> IDX %9d B (%5.1f%% reduction)  identical=%v\n",
			n, tiffBytes[n], idxBytes[n], 100*(1-float64(idxBytes[n])/float64(tiffBytes[n])), rep.Identical)
		tiffTotal += tiffBytes[n]
		idxTotal += idxBytes[n]
	}
	fmt.Fprintf(stdout, "  overall reduction: %.1f%%\n", 100*(1-float64(idxTotal)/float64(tiffTotal)))

	ds, _ := core.Fetch[*idx.Dataset](bb, core.KeyDataset)
	fmt.Fprintf(stdout, "\nIDX dataset: %dx%d, %d fields, %d resolution levels\n",
		ds.Meta.Dims[0], ds.Meta.Dims[1], len(ds.Meta.Fields), ds.Meta.MaxLevel())

	snip, _ := core.Fetch[[]byte](bb, core.KeySnip)
	fmt.Fprintf(stdout, "step-4 snip download: %d-byte NumPy array\n", len(snip))

	// Step 4 interactively: zoom into the eastern mountains at increasing
	// resolution, like dragging the dashboard's resolution slider.
	engine, _ := core.Fetch[*query.Engine](bb, core.KeyEngine)
	east := idx.Box{X0: ds.Meta.Dims[0] * 3 / 4, Y0: 0, X1: ds.Meta.Dims[0], Y1: ds.Meta.Dims[1]}
	fmt.Fprintln(stdout, "\nstep-4 progressive zoom into the eastern mountains:")
	err = engine.Progressive(context.Background(), query.Request{Field: "elevation", Box: east, Level: query.LevelFull}, 6, 3,
		func(r query.Result) error {
			fmt.Fprintf(stdout, "  level %2d: %3dx%-3d  mean elevation %.0f m  (%d bytes fetched)\n",
				r.Level, r.Grid.W, r.Grid.H, r.Grid.ComputeStats().Mean, r.Stats.BytesRead)
			return nil
		})
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "\ncatalog records:")
	for _, r := range fabric.Catalog.Search(catalog.Query{Limit: 100}) {
		fmt.Fprintf(stdout, "  %-14s %-28s %-12s %-6s %9d B\n", r.ID, r.Name, r.Source, r.Type, r.Size)
	}
	return nil
}
