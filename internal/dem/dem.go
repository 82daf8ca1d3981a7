// Package dem generates deterministic synthetic Digital Elevation Models.
//
// The NSDF tutorial's step 1 collects 30 m DEMs from the USGS and feeds
// them to GEOtiled. USGS downloads are a data gate for an offline
// reproduction, so this package synthesises statistically realistic
// terrain instead: fractional Brownian motion (value noise with octaves,
// whose power spectrum matches natural terrain), parametric landforms
// (ridges, hills, basins), and composite scenes standing in for the two
// geographies the tutorial visualises — the State of Tennessee
// (ridge-and-valley Appalachians into the Mississippi plain) and the
// Contiguous United States (CONUS).
//
// Every generator is a pure function of its seed, so experiments are
// exactly repeatable.
package dem

import (
	"fmt"
	"math"

	"nsdfgo/internal/raster"
)

// hash64 is a splitmix64 step; math/rand would also do, but an explicit
// implementation keeps the noise lattice hashable by coordinates, which
// value noise needs (random access by (x,y,seed) without storing a lattice).
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// latticeValue returns a deterministic pseudo-random value in [-1,1] for
// integer lattice point (ix,iy) under the given seed.
func latticeValue(ix, iy int64, seed uint64) float64 {
	h := hash64(uint64(ix)*0xd6e8feb86659fd93 ^ uint64(iy)*0xca5a826395121157 ^ seed)
	return float64(int64(h)) / float64(math.MaxInt64)
}

// smoothstep is the C1 fade used for value-noise interpolation.
func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// valueNoise samples C1-continuous value noise at (x,y) for one octave.
func valueNoise(x, y float64, seed uint64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	ix, iy := int64(x0), int64(y0)
	fx, fy := x-x0, y-y0
	v00 := latticeValue(ix, iy, seed)
	v10 := latticeValue(ix+1, iy, seed)
	v01 := latticeValue(ix, iy+1, seed)
	v11 := latticeValue(ix+1, iy+1, seed)
	sx, sy := smoothstep(fx), smoothstep(fy)
	top := v00 + (v10-v00)*sx
	bot := v01 + (v11-v01)*sx
	return top + (bot-top)*sy
}

// FBMOptions parameterises fractional Brownian motion terrain.
type FBMOptions struct {
	// Octaves is the number of noise octaves to sum. Values of 6-10 give
	// realistic terrain. Must be >= 1.
	Octaves int
	// Frequency is the base spatial frequency in cycles per pixel; 1/256
	// puts the largest landforms at a 256-pixel wavelength.
	Frequency float64
	// Lacunarity is the per-octave frequency multiplier (typically 2).
	Lacunarity float64
	// Gain is the per-octave amplitude multiplier (typically 0.5).
	Gain float64
	// Ridged selects ridged multifractal terrain (sharp mountain crests)
	// instead of smooth rolling fBm.
	Ridged bool
}

// DefaultFBM returns the options used by the tutorial scenes: 8 octaves,
// 256-pixel base wavelength, standard lacunarity and gain.
func DefaultFBM() FBMOptions {
	return FBMOptions{Octaves: 8, Frequency: 1.0 / 256, Lacunarity: 2, Gain: 0.5}
}

// FBM synthesises a w x h elevation grid in [0,1] (approximately; the sum
// is renormalised) from fractional Brownian motion with the given seed.
func FBM(w, h int, seed uint64, o FBMOptions) *raster.Grid {
	if o.Octaves < 1 {
		o.Octaves = 1
	}
	g := raster.New(w, h)
	// Max possible amplitude for normalisation.
	maxAmp := 0.0
	amp := 1.0
	for i := 0; i < o.Octaves; i++ {
		maxAmp += amp
		amp *= o.Gain
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := 0.0
			freq := o.Frequency
			amp := 1.0
			for oct := 0; oct < o.Octaves; oct++ {
				v := valueNoise(float64(x)*freq, float64(y)*freq, seed+uint64(oct)*0x9e3779b9)
				if o.Ridged {
					v = 1 - math.Abs(v) // crease at zero crossings
					v = v*2 - 1
				}
				sum += v * amp
				freq *= o.Lacunarity
				amp *= o.Gain
			}
			// Normalise from [-maxAmp,maxAmp] to [0,1].
			g.Set(x, y, float32(sum/(2*maxAmp)+0.5))
		}
	}
	return g
}

// Scale linearly maps a [0,1]-normalised grid to elevations in metres
// between lo and hi, in place, and returns the grid.
func Scale(g *raster.Grid, lo, hi float32) *raster.Grid {
	for i, v := range g.Data {
		g.Data[i] = lo + v*(hi-lo)
	}
	return g
}

// Tennessee synthesises a scene standing in for the tutorial's Tennessee
// 30 m dataset: parallel ridge-and-valley structure in the east (the
// Appalachians strike roughly northeast-southwest), rolling hills in the
// middle, and low flat plain toward the Mississippi in the west. Elevation
// is in metres and the grid is georeferenced to Tennessee's bounding box.
func Tennessee(w, h int, seed uint64) *raster.Grid {
	g := raster.New(w, h)
	ridg := FBM(w, h, seed^0xA17, FBMOptions{Octaves: 6, Frequency: 1.0 / 180, Lacunarity: 2, Gain: 0.55, Ridged: true})
	roll := FBM(w, h, seed^0xB23, DefaultFBM())
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// West (x=0) -> plain, east (x=w) -> mountains.
			t := float64(x) / float64(w-1+1)
			eastness := smoothstep(clamp01((t - 0.35) / 0.5))
			// Ridge-and-valley banding along a NE-SW strike.
			strike := math.Sin((float64(x)*0.55+float64(y)*0.85)*2*math.Pi/220.0)*0.5 + 0.5
			mountain := 200 + 1600*float64(ridg.At(x, y))*(0.55+0.45*strike)
			plain := 60 + 240*float64(roll.At(x, y))
			elev := plain*(1-eastness) + mountain*eastness
			g.Set(x, y, float32(elev))
		}
	}
	// Tennessee bounding box, 30 m-class pixels when w is large.
	g.Geo = &raster.Georef{
		OriginX: -90.31, OriginY: 36.68,
		PixelW: (90.31 - 81.65) / float64(w),
		PixelH: (36.68 - 34.98) / float64(h),
	}
	return g
}

// CONUS synthesises a scene standing in for the Contiguous United States:
// high western cordillera, central plains sloping to the Mississippi, and
// the older, lower Appalachians in the east. Elevation is in metres and
// the grid is georeferenced to the CONUS bounding box.
func CONUS(w, h int, seed uint64) *raster.Grid {
	g := raster.New(w, h)
	west := FBM(w, h, seed^0xC01, FBMOptions{Octaves: 7, Frequency: 1.0 / 300, Lacunarity: 2, Gain: 0.5, Ridged: true})
	east := FBM(w, h, seed^0xD02, FBMOptions{Octaves: 6, Frequency: 1.0 / 200, Lacunarity: 2, Gain: 0.5, Ridged: true})
	base := FBM(w, h, seed^0xE03, DefaultFBM())
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			t := float64(x) / float64(w)
			// Western cordillera: strong between t in [0.05,0.35].
			wWeight := gaussian(t, 0.18, 0.13)
			// Appalachians: moderate around t ~ 0.8.
			eWeight := 0.35 * gaussian(t, 0.80, 0.07)
			// Plains tilt: high plains in the west-center declining eastward.
			tilt := 1200 * math.Max(0, 0.45-t) / 0.45 * 0.35
			elev := 50 + 250*float64(base.At(x, y)) + tilt +
				3000*wWeight*float64(west.At(x, y)) +
				1300*eWeight*float64(east.At(x, y))
			g.Set(x, y, float32(elev))
		}
	}
	g.Geo = &raster.Georef{
		OriginX: -124.78, OriginY: 49.38,
		PixelW: (124.78 - 66.95) / float64(w),
		PixelH: (49.38 - 24.52) / float64(h),
	}
	return g
}

// Region returns the scene generator the tutorial names region: Tennessee
// for "tennessee", CONUS for "conus". Any other name is an error.
func Region(region string) (func(w, h int, seed uint64) *raster.Grid, error) {
	switch region {
	case "tennessee":
		return Tennessee, nil
	case "conus":
		return CONUS, nil
	}
	return nil, fmt.Errorf("dem: unknown region %q (want tennessee or conus)", region)
}

func gaussian(x, mu, sigma float64) float64 {
	d := (x - mu) / sigma
	return math.Exp(-0.5 * d * d)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
