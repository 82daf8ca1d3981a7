// Package geotiled reimplements the GEOtiled terrain-parameter workflow
// (Roa et al., HPDC 2023) used in step 1 of the NSDF tutorial: computing
// high-resolution terrain parameters — elevation, slope, aspect, and
// hillshade — from Digital Elevation Models, using spatial tiling with
// halo buffers to parallelise the computation while preserving accuracy.
//
// The kernels follow Horn's method (Horn 1981), the same finite-difference
// stencils used by GDAL's gdaldem, so tiled and untiled results agree
// bit-for-bit when the halo covers the kernel radius. The untiled path is
// kept as the accuracy and performance baseline the GEOtiled paper
// compares against.
package geotiled

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"nsdfgo/internal/raster"
)

// Param identifies a terrain parameter.
type Param int

// The terrain parameters generated in the tutorial ("the topographic data
// considered in this tutorial include elevation, aspect, slope, and hill
// shading").
const (
	Elevation Param = iota
	Slope
	Aspect
	Hillshade
	// Curvature is the Zevenbergen-Thorne total curvature: negative on
	// convex cells (ridges), positive on concave cells (valleys),
	// scaled by 100.
	Curvature
	// Roughness is the largest absolute elevation difference between a
	// cell and its 3x3 neighbours (Wilson et al. 2007), as in gdaldem TRI
	// tooling.
	Roughness
)

// AllParams lists every parameter in presentation order. The first four
// are the tutorial's default set; curvature and roughness extend GEOtiled
// to the wider parameter family its paper targets.
var AllParams = []Param{Elevation, Slope, Aspect, Hillshade, Curvature, Roughness}

// TutorialParams is the subset the tutorial's exercises generate
// ("elevation, aspect, slope, and hillshading").
var TutorialParams = []Param{Elevation, Slope, Aspect, Hillshade}

// String returns the parameter's name as used in dataset fields and CLI
// flags.
func (p Param) String() string {
	switch p {
	case Elevation:
		return "elevation"
	case Slope:
		return "slope"
	case Aspect:
		return "aspect"
	case Hillshade:
		return "hillshade"
	case Curvature:
		return "curvature"
	case Roughness:
		return "roughness"
	}
	return fmt.Sprintf("Param(%d)", int(p))
}

// ParseParam converts a parameter name to its Param.
func ParseParam(s string) (Param, error) {
	for _, p := range AllParams {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("geotiled: unknown terrain parameter %q", s)
}

// Options configures the terrain computation.
type Options struct {
	// CellSizeX and CellSizeY are the ground extent of one pixel in the
	// same length unit as the elevation values (metres for the tutorial's
	// 30 m DEMs). Zero values default to 30.
	CellSizeX, CellSizeY float64
	// TileSize is the interior tile edge in pixels for the tiled path.
	// Zero defaults to 512.
	TileSize int
	// Halo is the buffer width around each tile. It must be at least the
	// kernel radius (1) for exact seams; zero defaults to 2, matching
	// GEOtiled's conservative buffer.
	Halo int
	// Workers bounds tile parallelism. Zero defaults to GOMAXPROCS.
	Workers int
	// HillshadeAzimuth is the light azimuth in compass degrees (default 315).
	HillshadeAzimuth float64
	// HillshadeAltitude is the light altitude in degrees (default 45).
	HillshadeAltitude float64
}

func (o Options) withDefaults() Options {
	if o.CellSizeX == 0 {
		o.CellSizeX = 30
	}
	if o.CellSizeY == 0 {
		o.CellSizeY = 30
	}
	if o.TileSize == 0 {
		o.TileSize = 512
	}
	if o.Halo == 0 {
		o.Halo = 2
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.HillshadeAzimuth == 0 {
		o.HillshadeAzimuth = 315
	}
	if o.HillshadeAltitude == 0 {
		o.HillshadeAltitude = 45
	}
	return o
}

func (o Options) validate() error {
	if o.CellSizeX < 0 || o.CellSizeY < 0 {
		return fmt.Errorf("geotiled: negative cell size %gx%g", o.CellSizeX, o.CellSizeY)
	}
	if o.TileSize < 0 || o.Halo < 0 || o.Workers < 0 {
		return fmt.Errorf("geotiled: negative tiling parameter")
	}
	return nil
}

// Compute evaluates one terrain parameter over the whole DEM without
// tiling. It is the accuracy baseline for the tiled path and the
// comparator for the Fig. 5 benchmark.
func Compute(dem *raster.Grid, p Param, o Options) (*raster.Grid, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	if dem.W < 1 || dem.H < 1 {
		return nil, fmt.Errorf("geotiled: empty DEM")
	}
	out := raster.New(dem.W, dem.H)
	if dem.Geo != nil {
		geo := *dem.Geo
		out.Geo = &geo
	}
	computeRegion(dem, out, p, o, 0, 0, dem.W, dem.H)
	return out, nil
}

// ComputeTiled evaluates one terrain parameter using GEOtiled's
// partition-compute-mosaic strategy: the DEM is split into TileSize tiles,
// each worker computes its tile with a Halo-wide border of real neighbour
// data, and only tile interiors are mosaicked into the result, yielding
// seam-free output identical to the untiled baseline.
func ComputeTiled(dem *raster.Grid, p Param, o Options) (*raster.Grid, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	if dem.W < 1 || dem.H < 1 {
		return nil, fmt.Errorf("geotiled: empty DEM")
	}
	if o.Halo < 1 {
		return nil, fmt.Errorf("geotiled: halo %d is below the kernel radius 1; seams would be inexact", o.Halo)
	}
	out := raster.New(dem.W, dem.H)
	if dem.Geo != nil {
		geo := *dem.Geo
		out.Geo = &geo
	}
	tiles := Tiles(dem.W, dem.H, o.TileSize)
	sem := make(chan struct{}, o.Workers)
	var wg sync.WaitGroup
	for _, tl := range tiles {
		wg.Add(1)
		sem <- struct{}{}
		go func(tl TileSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			computeRegion(dem, out, p, o, tl.X0, tl.Y0, tl.W, tl.H)
		}(tl)
	}
	wg.Wait()
	return out, nil
}

// TileSpec describes one tile interior within the full grid.
type TileSpec struct {
	// X0, Y0 anchor the tile interior in grid pixels.
	X0, Y0 int
	// W, H are the interior extent (edge tiles may be smaller).
	W, H int
}

// Tiles partitions a w x h grid into tileSize x tileSize interiors.
func Tiles(w, h, tileSize int) []TileSpec {
	if tileSize <= 0 {
		tileSize = 512
	}
	var out []TileSpec
	for y := 0; y < h; y += tileSize {
		th := tileSize
		if y+th > h {
			th = h - y
		}
		for x := 0; x < w; x += tileSize {
			tw := tileSize
			if x+tw > w {
				tw = w - x
			}
			out = append(out, TileSpec{X0: x, Y0: y, W: tw, H: th})
		}
	}
	return out
}

// computeRegion fills out[y0:y0+h, x0:x0+w] with parameter p derived from
// dem. The stencil reads dem directly with edge clamping at the *global*
// grid border, so tiled region evaluation is exactly equivalent to a
// single whole-grid pass. (The halo option governs only how much work a
// tile re-reads from its neighbours; since dem is shared in memory here,
// neighbour access is direct. On the distributed GEOtiled the halo is a
// physical copy; the arithmetic is identical.)
func computeRegion(dem *raster.Grid, out *raster.Grid, p Param, o Options, x0, y0, w, h int) {
	switch p {
	case Elevation:
		for y := y0; y < y0+h; y++ {
			copy(out.Data[y*out.W+x0:y*out.W+x0+w], dem.Data[y*dem.W+x0:y*dem.W+x0+w])
		}
		return
	case Slope:
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				gx, gy, ok := hornGradient(dem, x, y, o)
				if !ok {
					out.Data[y*out.W+x] = nan32
					continue
				}
				out.Data[y*out.W+x] = float32(math.Atan(math.Hypot(gx, gy)) * 180 / math.Pi)
			}
		}
	case Aspect:
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				gx, gy, ok := hornGradient(dem, x, y, o)
				if !ok {
					out.Data[y*out.W+x] = nan32
					continue
				}
				out.Data[y*out.W+x] = aspectDegrees(gx, gy)
			}
		}
	case Hillshade:
		azRad := o.HillshadeAzimuth * math.Pi / 180
		altRad := o.HillshadeAltitude * math.Pi / 180
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				gx, gy, ok := hornGradient(dem, x, y, o)
				if !ok {
					out.Data[y*out.W+x] = nan32
					continue
				}
				out.Data[y*out.W+x] = hillshadeValue(gx, gy, azRad, altRad)
			}
		}
	case Curvature:
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				out.Data[y*out.W+x] = curvatureValue(dem, x, y, o)
			}
		}
	case Roughness:
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				out.Data[y*out.W+x] = roughnessValue(dem, x, y)
			}
		}
	}
}

// stencil3 gathers the 3x3 neighbourhood with edge clamping; ok=false
// when any sample is non-finite.
func stencil3(dem *raster.Grid, x, y int) (z [3][3]float64, ok bool) {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			sx := clamp(x+dx, 0, dem.W-1)
			sy := clamp(y+dy, 0, dem.H-1)
			v := float64(dem.Data[sy*dem.W+sx])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return z, false
			}
			z[dy+1][dx+1] = v
		}
	}
	return z, true
}

// curvatureValue evaluates the Zevenbergen-Thorne total curvature at
// (x,y): 2(D+E)·100 with D and E the second derivatives of the fitted
// quadratic — the discrete Laplacian, so concave cells (valleys) are
// positive and convex cells (ridges) negative, scaled by 100 as in
// common GIS tooling.
func curvatureValue(dem *raster.Grid, x, y int, o Options) float32 {
	z, ok := stencil3(dem, x, y)
	if !ok {
		return nan32
	}
	lx := o.CellSizeX
	ly := o.CellSizeY
	// Z&T: D = ((z4+z6)/2 - z5)/L^2, E = ((z2+z8)/2 - z5)/L^2 with the
	// 1..9 numbering; here z[1][0]=west(z4), z[1][2]=east(z6),
	// z[0][1]=north(z2), z[2][1]=south(z8), z[1][1]=center(z5).
	d := ((z[1][0]+z[1][2])/2 - z[1][1]) / (lx * lx)
	e := ((z[0][1]+z[2][1])/2 - z[1][1]) / (ly * ly)
	return float32(2 * (d + e) * 100)
}

// roughnessValue is the largest absolute difference between the centre
// cell and any 3x3 neighbour.
func roughnessValue(dem *raster.Grid, x, y int) float32 {
	z, ok := stencil3(dem, x, y)
	if !ok {
		return nan32
	}
	c := z[1][1]
	maxDiff := 0.0
	for dy := 0; dy < 3; dy++ {
		for dx := 0; dx < 3; dx++ {
			if d := math.Abs(z[dy][dx] - c); d > maxDiff {
				maxDiff = d
			}
		}
	}
	return float32(maxDiff)
}

var nan32 = float32(math.NaN())

// hornGradient evaluates Horn's 3x3 finite-difference gradient at (x,y).
// gx is the eastward elevation gradient dz/dx; gy is the northward
// gradient dz/dy (row 0 is the north edge). Returns ok=false when any
// stencil sample is non-finite (nodata propagates, as in gdaldem).
func hornGradient(dem *raster.Grid, x, y int, o Options) (gx, gy float64, ok bool) {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	var z [3][3]float64
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			sx := clamp(x+dx, 0, dem.W-1)
			sy := clamp(y+dy, 0, dem.H-1)
			v := float64(dem.Data[sy*dem.W+sx])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, false
			}
			z[dy+1][dx+1] = v
		}
	}
	// Horn 1981 weights; a..i laid out north-to-south, west-to-east:
	//   a b c
	//   d e f
	//   g h i
	a, b, c := z[0][0], z[0][1], z[0][2]
	d, f := z[1][0], z[1][2]
	g, hh, i := z[2][0], z[2][1], z[2][2]
	gx = ((c + 2*f + i) - (a + 2*d + g)) / (8 * o.CellSizeX)
	southward := ((g + 2*hh + i) - (a + 2*b + c)) / (8 * o.CellSizeY)
	gy = -southward
	return gx, gy, true
}

// aspectDegrees converts an elevation gradient to a downslope compass
// azimuth in [0,360): 0 = north, 90 = east. Flat cells return -1, the
// gdaldem flat-aspect sentinel.
func aspectDegrees(gx, gy float64) float32 {
	if gx == 0 && gy == 0 {
		return -1
	}
	// Downslope direction is the negative gradient (-gx, -gy) in (E,N)
	// coordinates; atan2(E, N) measures clockwise from north.
	az := math.Atan2(-gx, -gy) * 180 / math.Pi
	if az < 0 {
		az += 360
	}
	return float32(az)
}

// hillshadeValue computes the standard illumination model used by gdaldem:
// 255 * max(0, cos(zenith)cos(slope) + sin(zenith)sin(slope)cos(az-aspect)).
func hillshadeValue(gx, gy, azRad, altRad float64) float32 {
	slope := math.Atan(math.Hypot(gx, gy))
	var aspect float64
	if gx == 0 && gy == 0 {
		aspect = 0
	} else {
		aspect = math.Atan2(-gx, -gy)
	}
	zenith := math.Pi/2 - altRad
	v := math.Cos(zenith)*math.Cos(slope) + math.Sin(zenith)*math.Sin(slope)*math.Cos(azRad-aspect)
	if v < 0 {
		v = 0
	}
	return float32(255 * v)
}
