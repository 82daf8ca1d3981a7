// Command geotiled is the step-1 CLI of the tutorial workflow: it
// synthesises a DEM scene (standing in for the USGS download), computes
// terrain parameters with the tiled GEOtiled engine, and writes one
// GeoTIFF per parameter.
//
// Usage:
//
//	geotiled -region tennessee -width 1024 -height 512 -seed 7 -out ./data
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/tiff"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "geotiled:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	region := fs.String("region", "tennessee", "scene to synthesise: tennessee or conus")
	width := fs.Int("width", 1024, "scene width in pixels")
	height := fs.Int("height", 512, "scene height in pixels")
	seed := fs.Uint64("seed", 20240624, "synthesis seed")
	params := fs.String("params", "elevation,slope,aspect,hillshade", "comma-separated terrain parameters")
	out := fs.String("out", ".", "output directory for GeoTIFFs")
	tileSize := fs.Int("tile", 512, "GEOtiled tile size in pixels")
	workers := fs.Int("workers", 0, "tile workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scene, err := dem.Region(*region)
	if err != nil {
		return err
	}
	d := scene(*width, *height, *seed)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	opts := geotiled.Options{TileSize: *tileSize, Workers: *workers}
	for _, name := range strings.Split(*params, ",") {
		name = strings.TrimSpace(name)
		p, err := geotiled.ParseParam(name)
		if err != nil {
			return err
		}
		g, err := geotiled.ComputeTiled(d, p, opts)
		if err != nil {
			return err
		}
		path := filepath.Join(*out, fmt.Sprintf("%s_%s.tif", *region, name))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = tiff.Encode(f, tiff.FromGrid(g), tiff.EncodeOptions{Compression: tiff.CompressionDeflate})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		st := g.ComputeStats()
		fmt.Fprintf(stdout, "wrote %-40s %dx%d  min=%.2f max=%.2f mean=%.2f\n", path, g.W, g.H, st.Min, st.Max, st.Mean)
	}
	return nil
}
