package main

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"math"
	"net/http"
	"strconv"

	"nsdfgo/internal/colormap"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/hz"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/raster"
)

// lattice is the set of source pixels a box-at-level read must return:
// every level-L lattice point inside the box, row-major.
type lattice struct {
	x0, y0, sx, sy, w, h int
}

// latticeOf computes the lattice from the dataset's bitmask alone.
func latticeOf(mask hz.Bitmask, box idx.Box, level int) lattice {
	s := mask.LevelStrides(level)
	l := lattice{sx: s[0], sy: s[1]}
	l.x0 = (box.X0 + l.sx - 1) / l.sx * l.sx
	l.y0 = (box.Y0 + l.sy - 1) / l.sy * l.sy
	l.w = (box.X1-1-l.x0)/l.sx + 1
	l.h = (box.Y1-1-l.y0)/l.sy + 1
	return l
}

// decimate materialises the lattice's samples of src.
func (l lattice) decimate(src *raster.Grid) *raster.Grid {
	out := raster.New(l.w, l.h)
	for iy := 0; iy < l.h; iy++ {
		row := (l.y0 + iy*l.sy) * src.W
		for ix := 0; ix < l.w; ix++ {
			out.Data[iy*l.w+ix] = src.Data[row+l.x0+ix*l.sx]
		}
	}
	return out
}

// checkGrid reports whether got is bit for bit the lattice's samples of
// src.
func (l lattice) checkGrid(got, src *raster.Grid) error {
	if got.W != l.w || got.H != l.h {
		return fmt.Errorf("got %dx%d samples, want %dx%d", got.W, got.H, l.w, l.h)
	}
	for iy := 0; iy < l.h; iy++ {
		row := (l.y0 + iy*l.sy) * src.W
		for ix := 0; ix < l.w; ix++ {
			want, have := src.Data[row+l.x0+ix*l.sx], got.Data[iy*l.w+ix]
			if math.Float32bits(want) != math.Float32bits(have) {
				return fmt.Errorf("sample (%d,%d) is %g, want %g", ix, iy, have, want)
			}
		}
	}
	return nil
}

// oracle checks dashboard responses against the source grids.
type oracle struct {
	in   *inputs
	mask hz.Bitmask
}

func newOracle(in *inputs) (*oracle, error) {
	mask, err := hz.Guess([]int{in.sz.Dim, in.sz.Dim})
	return &oracle{in: in, mask: mask}, err
}

// check verifies one response. Every /api/data body is decoded and
// compared sample by sample. Every /api/render body must be a PNG of
// the lattice's size whose X-NSDF-Samples header matches; with pixels
// set (warm-up, where time does not count) the image is also decoded
// and compared with the palette applied to the source samples.
func (o *oracle) check(r *request, status int, hdr http.Header, body []byte, pixels bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.80s", status, body)
	}
	l := latticeOf(o.mask, r.Box, r.Level)
	src := o.in.grids[r.Field][r.T]
	if !r.Render {
		got, err := dashboard.DecodeNPY(body)
		if err != nil {
			return err
		}
		return l.checkGrid(got, src)
	}
	if n, err := strconv.Atoi(hdr.Get("X-NSDF-Samples")); err != nil || n != l.w*l.h {
		return fmt.Errorf("X-NSDF-Samples %q, want %d", hdr.Get("X-NSDF-Samples"), l.w*l.h)
	}
	if !pixels {
		cfg, err := png.DecodeConfig(bytes.NewReader(body))
		if err != nil {
			return err
		}
		if cfg.Width != l.w || cfg.Height != l.h {
			return fmt.Errorf("png is %dx%d, want %dx%d", cfg.Width, cfg.Height, l.w, l.h)
		}
		return nil
	}
	img, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return err
	}
	return checkPixels(img, l.decimate(src), r.Palette)
}

// pixelTolerance admits a renderer that quantises the palette (a lookup
// table) but not a wrong palette, range or orientation.
const pixelTolerance = 4

func checkPixels(img image.Image, g *raster.Grid, paletteName string) error {
	if b := img.Bounds(); b.Dx() != g.W || b.Dy() != g.H {
		return fmt.Errorf("png is %dx%d, want %dx%d", b.Dx(), b.Dy(), g.W, g.H)
	}
	palette, err := colormap.Lookup(paletteName)
	if err != nil {
		return err
	}
	rng := colormap.DynamicRange(g.Data)
	near := func(a uint32, b uint8) bool {
		d := int(a>>8) - int(b)
		return d >= -pixelTolerance && d <= pixelTolerance
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			want := palette.At(rng.Normalize(float64(g.At(x, y))))
			r, gr, b, a := img.At(x, y).RGBA()
			if !near(r, want.R) || !near(gr, want.G) || !near(b, want.B) || !near(a, want.A) {
				return fmt.Errorf("pixel (%d,%d) is %v, want %v", x, y, img.At(x, y), want)
			}
		}
	}
	return nil
}
