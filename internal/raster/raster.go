// Package raster defines the in-memory grid type shared by the data
// generation (GEOtiled), conversion (TIFF/IDX), analysis (SOMOSPIE), and
// visualization (dashboard) stages of the NSDF tutorial workflow: a
// row-major float32 raster with optional georeferencing.
package raster

import (
	"fmt"
	"math"
)

// Georef describes the affine mapping from pixel space to a geographic
// coordinate system, mirroring the GeoTIFF ModelTiepoint + ModelPixelScale
// convention used by the USGS DEMs in the tutorial.
type Georef struct {
	// OriginX and OriginY are the geographic coordinates of the outer
	// corner of pixel (0,0): typically west longitude and north latitude.
	OriginX, OriginY float64
	// PixelW and PixelH are the geographic extent of one pixel. PixelH is
	// positive; rows advance southward (decreasing Y), as in GeoTIFF.
	PixelW, PixelH float64
}

// PixelToGeo returns the geographic coordinates of the center of pixel (x,y).
func (g Georef) PixelToGeo(x, y int) (gx, gy float64) {
	return g.OriginX + (float64(x)+0.5)*g.PixelW, g.OriginY - (float64(y)+0.5)*g.PixelH
}

// Grid is a row-major float32 raster. NaN samples denote nodata.
type Grid struct {
	// W and H are the raster dimensions in pixels.
	W, H int
	// Data holds W*H samples, row-major, row 0 northmost.
	Data []float32
	// Geo optionally georeferences the grid.
	Geo *Georef
}

// New allocates a zero-filled W x H grid.
func New(w, h int) *Grid {
	return &Grid{W: w, H: h, Data: make([]float32, w*h)}
}

// At returns the sample at (x,y). Out-of-bounds access panics, like slice
// indexing.
func (g *Grid) At(x, y int) float32 { return g.Data[y*g.W+x] }

// Set stores v at (x,y).
func (g *Grid) Set(x, y int, v float32) { g.Data[y*g.W+x] = v }

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	out := &Grid{W: g.W, H: g.H, Data: make([]float32, len(g.Data))}
	copy(out.Data, g.Data)
	if g.Geo != nil {
		geo := *g.Geo
		out.Geo = &geo
	}
	return out
}

// Crop returns a copy of the w x h subregion anchored at (x0,y0). The
// region must lie within the grid. Georeferencing is shifted accordingly.
func (g *Grid) Crop(x0, y0, w, h int) (*Grid, error) {
	if x0 < 0 || y0 < 0 || w <= 0 || h <= 0 || x0+w > g.W || y0+h > g.H {
		return nil, fmt.Errorf("raster: crop %dx%d at (%d,%d) outside %dx%d grid", w, h, x0, y0, g.W, g.H)
	}
	out := New(w, h)
	for y := 0; y < h; y++ {
		copy(out.Data[y*w:(y+1)*w], g.Data[(y0+y)*g.W+x0:(y0+y)*g.W+x0+w])
	}
	if g.Geo != nil {
		out.Geo = &Georef{
			OriginX: g.Geo.OriginX + float64(x0)*g.Geo.PixelW,
			OriginY: g.Geo.OriginY - float64(y0)*g.Geo.PixelH,
			PixelW:  g.Geo.PixelW,
			PixelH:  g.Geo.PixelH,
		}
	}
	return out, nil
}

// MinMax returns the smallest and largest finite samples. ok is false when
// the grid holds no finite samples.
func (g *Grid) MinMax() (lo, hi float32, ok bool) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range g.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		ok = true
	}
	if !ok {
		return 0, 0, false
	}
	return lo, hi, true
}

// Stats summarises the finite samples of the grid.
type Stats struct {
	// N is the number of finite samples.
	N int
	// Min, Max, Mean, and Std summarise the finite samples.
	Min, Max, Mean, Std float64
	// Nodata counts non-finite samples.
	Nodata int
}

// ComputeStats scans the grid once and returns its summary statistics.
func (g *Grid) ComputeStats() Stats {
	var s Stats
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum, sumSq float64
	for _, v := range g.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			s.Nodata++
			continue
		}
		s.N++
		sum += f
		sumSq += f * f
		if f < s.Min {
			s.Min = f
		}
		if f > s.Max {
			s.Max = f
		}
	}
	if s.N == 0 {
		s.Min, s.Max = 0, 0
		return s
	}
	s.Mean = sum / float64(s.N)
	variance := sumSq/float64(s.N) - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	s.Std = math.Sqrt(variance)
	return s
}

// Equal reports whether two grids have identical dimensions and bitwise
// identical samples (NaN == NaN for this purpose).
func Equal(a, b *Grid) bool {
	if a.W != b.W || a.H != b.H || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
