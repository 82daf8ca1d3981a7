// Command nsdf-convert is the step-2 CLI of the tutorial workflow: it
// converts rasters into one multiresolution IDX dataset on disk,
// preserving accuracy, and reports the size change (the paper's ~20%
// claim is directly observable from its output). Inputs may be GeoTIFF,
// NetCDF classic, PNG (converted to luminance), or raw float32 binary —
// the format versatility §IV-B describes.
//
// Usage:
//
//	nsdf-convert -out ./tennessee.idxdata ./data/*.tif
//	nsdf-convert -out ./sm.idxdata -variable soil_moisture ./esa_cci.nc
//	nsdf-convert -out ./scan.idxdata -raw-width 512 -raw-height 512 frame.raw
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"nsdfgo/internal/convert"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-convert:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	out := fs.String("out", "dataset.idxdata", "output directory for the IDX dataset")
	codec := fs.String("codec", "", "block codec (default: per-type shuffle+zlib)")
	bitsPerBlock := fs.Int("bitsperblock", idx.DefaultBitsPerBlock, "samples per block = 2^bitsperblock")
	validate := fs.Bool("validate", true, "read back and verify every field bit-for-bit")
	variable := fs.String("variable", "", "NetCDF variable to extract (default: first 2D data variable)")
	rawWidth := fs.Int("raw-width", 0, "width of raw float32 inputs")
	rawHeight := fs.Int("raw-height", 0, "height of raw float32 inputs")
	writeParallelism := fs.Int("write-parallelism", 0, "concurrent block writes per field (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no inputs (usage: nsdf-convert -out DIR file.{tif,nc,png,raw}...)")
	}

	opts := convert.Options{Variable: *variable, RawWidth: *rawWidth, RawHeight: *rawHeight}
	var inputs []convert.Input
	sizes := map[string]int64{}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		g, err := convert.LoadRaster(path, data, opts)
		if err != nil {
			return err
		}
		name := convert.SanitizeFieldName(path)
		inputs = append(inputs, convert.Input{FieldName: name, Grid: g})
		sizes[name] = int64(len(data))
	}

	ctx := context.Background()
	dir, err := storage.NewFileStore(*out)
	if err != nil {
		return err
	}
	ds, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(dir, ""), inputs, convert.IDXOptions{
		BitsPerBlock:     *bitsPerBlock,
		Codec:            *codec,
		WriteParallelism: *writeParallelism,
	})
	if err != nil {
		return err
	}
	var srcTotal, idxTotal int64
	for _, in := range inputs {
		if *validate {
			back, _, err := ds.ReadFull(ctx, in.FieldName, 0)
			if err != nil {
				return fmt.Errorf("validate %s: %w", in.FieldName, err)
			}
			if !raster.Equal(in.Grid, back) {
				return fmt.Errorf("validate %s: round trip not identical", in.FieldName)
			}
		}
		stored, err := ds.StoredBytes(ctx, in.FieldName, 0)
		if err != nil {
			return err
		}
		srcTotal += sizes[in.FieldName]
		idxTotal += stored
		fmt.Fprintf(stdout, "field %-24s source %10d B -> IDX %10d B  (%.1f%% reduction)\n",
			in.FieldName, sizes[in.FieldName], stored, 100*(1-float64(stored)/float64(sizes[in.FieldName])))
	}
	fmt.Fprintf(stdout, "dataset %s: %d fields, %dx%d, %d levels, overall reduction %.1f%%\n",
		*out, len(inputs), inputs[0].Grid.W, inputs[0].Grid.H, ds.Meta.MaxLevel(),
		100*(1-float64(idxTotal)/float64(srcTotal)))
	return nil
}
