package geotiled

import (
	"math"
	"testing"
	"testing/quick"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/raster"
)

// plane builds a DEM that is a perfect inclined plane z = ax + by + c,
// for which all terrain parameters have closed-form values.
func plane(w, h int, ax, by, c float64) *raster.Grid {
	g := raster.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.Set(x, y, float32(ax*float64(x)+by*float64(y)+c))
		}
	}
	return g
}

func TestParamStringAndParse(t *testing.T) {
	for _, p := range AllParams {
		got, err := ParseParam(p.String())
		if err != nil || got != p {
			t.Errorf("ParseParam(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseParam("wetness-index"); err == nil {
		t.Error("unknown param accepted")
	}
}

func TestElevationPassthrough(t *testing.T) {
	d := dem.Scale(dem.FBM(32, 32, 1, dem.DefaultFBM()), 0, 1000)
	out, err := Compute(d, Elevation, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(d, out) {
		t.Error("elevation output differs from input")
	}
}

func TestSlopeFlatPlane(t *testing.T) {
	d := plane(16, 16, 0, 0, 100)
	out, err := Compute(d, Slope, Options{CellSizeX: 30, CellSizeY: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v != 0 {
			t.Fatalf("flat plane slope[%d] = %v", i, v)
		}
	}
}

func TestSlopeInclinedPlane(t *testing.T) {
	// z rises 30 units per pixel eastward with 30 m pixels: gradient 1,
	// slope 45 degrees. Edge clamping does not distort a perfect plane's
	// interior cells.
	d := plane(16, 16, 30, 0, 0)
	out, err := Compute(d, Slope, Options{CellSizeX: 30, CellSizeY: 30})
	if err != nil {
		t.Fatal(err)
	}
	for y := 1; y < 15; y++ {
		for x := 1; x < 15; x++ {
			if got := out.At(x, y); math.Abs(float64(got)-45) > 1e-4 {
				t.Fatalf("slope(%d,%d) = %v, want 45", x, y, got)
			}
		}
	}
}

func TestAspectCardinalDirections(t *testing.T) {
	cases := []struct {
		ax, by float64
		want   float64
	}{
		// z increases eastward -> downslope west (270).
		{30, 0, 270},
		// z increases southward (y grows south) -> downslope north (0).
		{0, 30, 0},
		// z increases westward -> downslope east (90).
		{-30, 0, 90},
		// z increases northward -> downslope south (180).
		{0, -30, 180},
	}
	for _, c := range cases {
		d := plane(8, 8, c.ax, c.by, 0)
		out, err := Compute(d, Aspect, Options{CellSizeX: 30, CellSizeY: 30})
		if err != nil {
			t.Fatal(err)
		}
		got := float64(out.At(4, 4))
		diff := math.Abs(got - c.want)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 1e-4 {
			t.Errorf("plane(%v,%v): aspect = %v, want %v", c.ax, c.by, got, c.want)
		}
	}
}

func TestAspectFlatSentinel(t *testing.T) {
	d := plane(8, 8, 0, 0, 5)
	out, err := Compute(d, Aspect, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.At(4, 4) != -1 {
		t.Errorf("flat aspect = %v, want -1", out.At(4, 4))
	}
}

func TestHillshadeRange(t *testing.T) {
	d := dem.Scale(dem.FBM(64, 64, 3, dem.DefaultFBM()), 0, 2000)
	out, err := Compute(d, Hillshade, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data {
		if v < 0 || v > 255 {
			t.Fatalf("hillshade[%d] = %v outside [0,255]", i, v)
		}
	}
}

func TestHillshadeIlluminationDirection(t *testing.T) {
	// Light from azimuth 315 (NW): a NW-facing slope must be brighter than
	// a SE-facing slope.
	nw := plane(8, 8, 30, 30, 0) // downslope toward NW
	se := plane(8, 8, -30, -30, 0)
	onw, _ := Compute(nw, Hillshade, Options{})
	ose, _ := Compute(se, Hillshade, Options{})
	if onw.At(4, 4) <= ose.At(4, 4) {
		t.Errorf("NW-facing %v not brighter than SE-facing %v under NW light", onw.At(4, 4), ose.At(4, 4))
	}
}

func TestCurvatureSigns(t *testing.T) {
	// A parabolic valley z = (x-c)^2 has positive curvature everywhere; a
	// parabolic ridge z = -(x-c)^2 negative; a plane zero.
	const n = 9
	mk := func(f func(x int) float64) *raster.Grid {
		g := raster.New(n, n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				g.Set(x, y, float32(f(x)))
			}
		}
		return g
	}
	valley := mk(func(x int) float64 { d := float64(x - 4); return d * d * 10 })
	ridge := mk(func(x int) float64 { d := float64(x - 4); return -d * d * 10 })
	flat := mk(func(x int) float64 { return 42 })
	opts := Options{CellSizeX: 30, CellSizeY: 30}
	cv, err := Compute(valley, Curvature, opts)
	if err != nil {
		t.Fatal(err)
	}
	cr, _ := Compute(ridge, Curvature, opts)
	cf, _ := Compute(flat, Curvature, opts)
	if cv.At(4, 4) <= 0 {
		t.Errorf("valley curvature %v, want positive", cv.At(4, 4))
	}
	if cr.At(4, 4) >= 0 {
		t.Errorf("ridge curvature %v, want negative", cr.At(4, 4))
	}
	if cf.At(4, 4) != 0 {
		t.Errorf("flat curvature %v, want 0", cf.At(4, 4))
	}
}

func TestRoughness(t *testing.T) {
	// On the inclined plane z = 30x the interior roughness is exactly 30
	// (the largest neighbour difference), and a flat plane gives 0.
	d := plane(8, 8, 30, 0, 0)
	out, err := Compute(d, Roughness, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.At(4, 4); got != 30 {
		t.Errorf("roughness = %v, want 30", got)
	}
	flat := plane(8, 8, 0, 0, 7)
	out, _ = Compute(flat, Roughness, Options{})
	if out.At(4, 4) != 0 {
		t.Errorf("flat roughness = %v", out.At(4, 4))
	}
}

func TestNewParamsTiledMatchUntiled(t *testing.T) {
	d := dem.Scale(dem.FBM(130, 95, 4, dem.DefaultFBM()), 0, 1500)
	for _, p := range []Param{Curvature, Roughness} {
		base, err := Compute(d, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := ComputeTiled(d, p, Options{TileSize: 48, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(base, tiled) {
			t.Errorf("%s: tiled output differs from baseline", p)
		}
	}
}

func TestNodataPropagates(t *testing.T) {
	d := plane(8, 8, 30, 0, 0)
	d.Set(4, 4, float32(math.NaN()))
	out, err := Compute(d, Slope, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every cell whose stencil touches (4,4) must be NaN.
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if v := out.At(4+dx, 4+dy); !math.IsNaN(float64(v)) {
				t.Errorf("slope(%d,%d) = %v, want NaN near nodata", 4+dx, 4+dy, v)
			}
		}
	}
	if v := out.At(1, 1); math.IsNaN(float64(v)) {
		t.Error("nodata leaked beyond kernel radius")
	}
}

func TestTiledMatchesUntiledExactly(t *testing.T) {
	d := dem.Scale(dem.FBM(217, 183, 77, dem.DefaultFBM()), 0, 1500) // odd size to force ragged tiles
	for _, p := range AllParams {
		base, err := Compute(d, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := ComputeTiled(d, p, Options{TileSize: 64, Halo: 2, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(base, tiled) {
			t.Errorf("%s: tiled output differs from untiled baseline", p)
		}
	}
}

func TestTiledSingleTileDegenerate(t *testing.T) {
	d := dem.Scale(dem.FBM(30, 30, 5, dem.DefaultFBM()), 0, 100)
	tiled, err := ComputeTiled(d, Slope, Options{TileSize: 512, Halo: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Compute(d, Slope, Options{})
	if !raster.Equal(base, tiled) {
		t.Error("single-tile output differs")
	}
}

func TestGeorefPropagates(t *testing.T) {
	d := dem.Tennessee(64, 32, 3)
	out, err := ComputeTiled(d, Slope, Options{TileSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if out.Geo == nil || out.Geo.OriginX != d.Geo.OriginX {
		t.Error("georeferencing lost")
	}
}

func TestOptionsValidation(t *testing.T) {
	d := plane(4, 4, 1, 0, 0)
	if _, err := Compute(d, Slope, Options{CellSizeX: -1}); err == nil {
		t.Error("negative cell size accepted")
	}
	if _, err := ComputeTiled(d, Slope, Options{Halo: -1}); err == nil {
		t.Error("negative halo accepted")
	}
	if _, err := Compute(raster.New(0, 0), Slope, Options{}); err == nil {
		t.Error("empty DEM accepted")
	}
}

func TestTiles(t *testing.T) {
	tiles := Tiles(100, 50, 32)
	if len(tiles) != 4*2 {
		t.Fatalf("got %d tiles, want 8", len(tiles))
	}
	// Tiles must cover the grid exactly once.
	covered := make([]bool, 100*50)
	for _, tl := range tiles {
		for y := tl.Y0; y < tl.Y0+tl.H; y++ {
			for x := tl.X0; x < tl.X0+tl.W; x++ {
				idx := y*100 + x
				if covered[idx] {
					t.Fatalf("pixel (%d,%d) covered twice", x, y)
				}
				covered[idx] = true
			}
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("pixel %d not covered", i)
		}
	}
}

func TestTilesZeroSizeDefaults(t *testing.T) {
	tiles := Tiles(10, 10, 0)
	if len(tiles) != 1 {
		t.Errorf("got %d tiles", len(tiles))
	}
}

func TestSlopeScalesInverselyWithCellSizeProperty(t *testing.T) {
	// Doubling the cell size halves the gradient: slope must decrease.
	f := func(seed uint16) bool {
		d := dem.Scale(dem.FBM(24, 24, uint64(seed), dem.DefaultFBM()), 0, 500)
		s30, err1 := Compute(d, Slope, Options{CellSizeX: 30, CellSizeY: 30})
		s60, err2 := Compute(d, Slope, Options{CellSizeX: 60, CellSizeY: 60})
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range s30.Data {
			if s60.Data[i] > s30.Data[i]+1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSlopeUntiled512(b *testing.B) {
	d := dem.Scale(dem.FBM(512, 512, 1, dem.DefaultFBM()), 0, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(d, Slope, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlopeTiled512(b *testing.B) {
	d := dem.Scale(dem.FBM(512, 512, 1, dem.DefaultFBM()), 0, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeTiled(d, Slope, Options{TileSize: 128}); err != nil {
			b.Fatal(err)
		}
	}
}
