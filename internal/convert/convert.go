// Package convert implements the tutorial's step-2 format versatility:
// "the file conversion to IDX is not limited to TIFF; it supports other
// data formats such as NetCDF, HDF5, RGB, raw/binary". It loads rasters
// from TIFF, NetCDF classic, PNG/RGB images (luminance), and raw
// float32 binary, sniffing the format from content, and converts any of
// them into fields of an IDX dataset.
//
// (NetCDF-4/HDF5 files are detected and rejected with a clear message:
// the HDF5 container is out of scope for a stdlib-only build, and the
// classic encoder here provides the equivalent on-ramp.)
package convert

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"image"
	"image/png"
	"math"
	"path/filepath"
	"strings"

	"nsdfgo/internal/idx"
	"nsdfgo/internal/netcdf"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/tiff"
)

// Format identifies a supported input container.
type Format string

// Supported input formats.
const (
	FormatTIFF   Format = "tiff"
	FormatNetCDF Format = "netcdf"
	FormatPNG    Format = "png"
	FormatRaw    Format = "raw"
)

// Sniff determines the format of a payload from its magic bytes, falling
// back to the file extension for raw binary. TIFF requires the full
// 4-byte magic — byte order mark plus the constant 42 ("II*\0" or
// "MM\0*") — so raw files that merely start with "II" or "MM" are not
// misrouted into the TIFF decoder.
func Sniff(name string, data []byte) (Format, error) {
	switch {
	case len(data) >= 4 && (string(data[:4]) == "II*\x00" || string(data[:4]) == "MM\x00*"):
		return FormatTIFF, nil
	case len(data) >= 4 && string(data[:3]) == "CDF":
		return FormatNetCDF, nil
	case len(data) >= 8 && string(data[:8]) == "\x89HDF\r\n\x1a\n":
		return "", fmt.Errorf("convert: %s is HDF5/NetCDF-4; convert it to NetCDF classic first (stdlib-only build)", name)
	case len(data) >= 8 && string(data[:8]) == "\x89PNG\r\n\x1a\n":
		return FormatPNG, nil
	}
	switch strings.ToLower(filepath.Ext(name)) {
	case ".raw", ".bin", ".f32":
		return FormatRaw, nil
	}
	return "", fmt.Errorf("convert: cannot determine format of %s", name)
}

// Options carries format-specific parameters.
type Options struct {
	// Variable names the NetCDF variable to extract; empty picks the
	// first 2D non-coordinate variable.
	Variable string
	// RawWidth and RawHeight give the dimensions of raw float32 input.
	RawWidth, RawHeight int
}

// LoadRaster decodes a payload of any supported format into a grid.
func LoadRaster(name string, data []byte, opts Options) (*raster.Grid, error) {
	format, err := Sniff(name, data)
	if err != nil {
		return nil, err
	}
	switch format {
	case FormatTIFF:
		im, err := tiff.DecodeBytes(data)
		if err != nil {
			return nil, err
		}
		return im.Grid(), nil
	case FormatNetCDF:
		f, err := netcdf.DecodeBytes(data)
		if err != nil {
			return nil, err
		}
		varName := opts.Variable
		if varName == "" {
			varName, err = pick2DVariable(f)
			if err != nil {
				return nil, err
			}
		}
		return f.Grid(varName)
	case FormatPNG:
		img, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("convert: %s: %w", name, err)
		}
		return fromImage(img), nil
	case FormatRaw:
		if opts.RawWidth <= 0 || opts.RawHeight <= 0 {
			return nil, fmt.Errorf("convert: raw input %s needs explicit dimensions", name)
		}
		want := 4 * opts.RawWidth * opts.RawHeight
		if len(data) != want {
			return nil, fmt.Errorf("convert: raw input %s is %d bytes, want %d for %dx%d float32",
				name, len(data), want, opts.RawWidth, opts.RawHeight)
		}
		g := raster.New(opts.RawWidth, opts.RawHeight)
		for i := range g.Data {
			g.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		return g, nil
	}
	return nil, fmt.Errorf("convert: unhandled format %q", format)
}

// pick2DVariable returns the first 2D variable that is not a coordinate
// variable (i.e. not named after one of its dimensions).
func pick2DVariable(f *netcdf.File) (string, error) {
	for _, v := range f.Vars {
		if len(v.DimIDs) != 2 {
			continue
		}
		isCoord := false
		for _, id := range v.DimIDs {
			if f.Dims[id].Name == v.Name {
				isCoord = true
			}
		}
		if !isCoord {
			return v.Name, nil
		}
	}
	return "", fmt.Errorf("convert: no 2D data variable in NetCDF file")
}

// fromImage converts any image to a luminance grid in [0,255].
func fromImage(img image.Image) *raster.Grid {
	b := img.Bounds()
	g := raster.New(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, gr, bl, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			// ITU-R BT.601 luma, 16-bit channels scaled to [0,255].
			luma := (0.299*float64(r) + 0.587*float64(gr) + 0.114*float64(bl)) / 257
			g.Set(x, y, float32(luma))
		}
	}
	return g
}

// Input is one raster destined for an IDX field.
type Input struct {
	// FieldName names the IDX field (sanitised).
	FieldName string
	// Grid holds the samples.
	Grid *raster.Grid
}

// SanitizeFieldName maps an arbitrary file name to a valid IDX field name.
func SanitizeFieldName(name string) string {
	base := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		}
		return '_'
	}, base)
	if strings.Trim(out, "_") == "" {
		out = "field"
	}
	return out
}

// IDXOptions tunes how ToIDXWith lays out and writes the dataset.
type IDXOptions struct {
	// BitsPerBlock sets samples per block = 2^BitsPerBlock; 0 keeps the
	// dataset default.
	BitsPerBlock int
	// Codec names the block codec; empty selects the per-type default.
	Codec string
	// WriteParallelism bounds concurrent block writes; 0 uses the
	// dataset default (GOMAXPROCS). See idx.Dataset.SetWriteParallelism.
	WriteParallelism int
}

// ToIDXWith writes the inputs as fields of a new IDX dataset on the
// backend. All inputs must share dimensions; georeferencing is taken from
// the first input that has it. ctx bounds all backend I/O. Returns the
// dataset.
func ToIDXWith(ctx context.Context, be idx.Backend, inputs []Input, opts IDXOptions) (*idx.Dataset, error) {
	bitsPerBlock, codec := opts.BitsPerBlock, opts.Codec
	if len(inputs) == 0 {
		return nil, fmt.Errorf("convert: no inputs")
	}
	w, h := inputs[0].Grid.W, inputs[0].Grid.H
	fields := make([]idx.Field, 0, len(inputs))
	seen := map[string]bool{}
	for _, in := range inputs {
		if in.Grid.W != w || in.Grid.H != h {
			return nil, fmt.Errorf("convert: %s is %dx%d; first input is %dx%d", in.FieldName, in.Grid.W, in.Grid.H, w, h)
		}
		if seen[in.FieldName] {
			return nil, fmt.Errorf("convert: duplicate field %q", in.FieldName)
		}
		seen[in.FieldName] = true
		fields = append(fields, idx.Field{Name: in.FieldName, Type: idx.Float32, Codec: codec})
	}
	meta, err := idx.NewMeta([]int{w, h}, fields)
	if err != nil {
		return nil, err
	}
	if bitsPerBlock > 0 {
		meta.BitsPerBlock = bitsPerBlock
		if meta.BitsPerBlock > meta.Bits.Bits() {
			meta.BitsPerBlock = meta.Bits.Bits()
		}
	}
	for _, in := range inputs {
		if in.Grid.Geo != nil {
			geo := *in.Grid.Geo
			meta.Geo = &geo
			break
		}
	}
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	ds, err := idx.Create(ctx, be, meta)
	if err != nil {
		return nil, err
	}
	ds.SetWriteParallelism(opts.WriteParallelism)
	for _, in := range inputs {
		if err := ds.WriteGrid(ctx, in.FieldName, 0, in.Grid); err != nil {
			return nil, fmt.Errorf("convert: write %s: %w", in.FieldName, err)
		}
	}
	return ds, nil
}
