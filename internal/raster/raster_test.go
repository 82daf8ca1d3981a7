package raster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	g := New(4, 3)
	if g.W != 4 || g.H != 3 || len(g.Data) != 12 {
		t.Fatalf("New(4,3) = %dx%d with %d samples", g.W, g.H, len(g.Data))
	}
	g.Set(2, 1, 7.5)
	if g.At(2, 1) != 7.5 {
		t.Errorf("At(2,1) = %v, want 7.5", g.At(2, 1))
	}
	if g.Data[1*4+2] != 7.5 {
		t.Error("Set did not write row-major")
	}
}

func TestClone(t *testing.T) {
	g := New(2, 2)
	g.Set(0, 0, 1)
	g.Geo = &Georef{OriginX: -85, OriginY: 36, PixelW: 0.01, PixelH: 0.01}
	c := g.Clone()
	c.Set(0, 0, 99)
	c.Geo.OriginX = 0
	if g.At(0, 0) != 1 {
		t.Error("Clone shares data")
	}
	if g.Geo.OriginX != -85 {
		t.Error("Clone shares georef")
	}
}

func TestCrop(t *testing.T) {
	g := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			g.Set(x, y, float32(y*8+x))
		}
	}
	g.Geo = &Georef{OriginX: 10, OriginY: 50, PixelW: 1, PixelH: 1}
	c, err := g.Crop(2, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.W != 4 || c.H != 2 {
		t.Fatalf("crop dims %dx%d", c.W, c.H)
	}
	if c.At(0, 0) != float32(3*8+2) {
		t.Errorf("crop(0,0) = %v", c.At(0, 0))
	}
	if c.At(3, 1) != float32(4*8+5) {
		t.Errorf("crop(3,1) = %v", c.At(3, 1))
	}
	if c.Geo.OriginX != 12 || c.Geo.OriginY != 47 {
		t.Errorf("crop georef = %+v", c.Geo)
	}
}

func TestCropBounds(t *testing.T) {
	g := New(4, 4)
	bad := [][4]int{{-1, 0, 2, 2}, {0, -1, 2, 2}, {3, 0, 2, 2}, {0, 3, 2, 2}, {0, 0, 0, 1}, {0, 0, 5, 1}}
	for _, c := range bad {
		if _, err := g.Crop(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("Crop(%v) accepted", c)
		}
	}
	if _, err := g.Crop(0, 0, 4, 4); err != nil {
		t.Errorf("full-extent crop rejected: %v", err)
	}
}

func TestMinMax(t *testing.T) {
	g := New(2, 2)
	g.Data = []float32{3, float32(math.NaN()), -1, 7}
	lo, hi, ok := g.MinMax()
	if !ok || lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v,%v,%v", lo, hi, ok)
	}
	empty := New(1, 1)
	empty.Data[0] = float32(math.NaN())
	if _, _, ok := empty.MinMax(); ok {
		t.Error("all-NaN grid reported ok")
	}
}

func TestComputeStats(t *testing.T) {
	g := New(2, 2)
	g.Data = []float32{1, 2, 3, float32(math.NaN())}
	s := g.ComputeStats()
	if s.N != 3 || s.Nodata != 1 {
		t.Errorf("N=%d Nodata=%d", s.N, s.Nodata)
	}
	if s.Min != 1 || s.Max != 3 {
		t.Errorf("Min=%v Max=%v", s.Min, s.Max)
	}
	if math.Abs(s.Mean-2) > 1e-12 {
		t.Errorf("Mean=%v", s.Mean)
	}
	wantStd := math.Sqrt(2.0 / 3.0)
	if math.Abs(s.Std-wantStd) > 1e-9 {
		t.Errorf("Std=%v want %v", s.Std, wantStd)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g := New(1, 1)
	g.Data[0] = float32(math.Inf(1))
	s := g.ComputeStats()
	if s.N != 0 || s.Nodata != 1 || s.Min != 0 || s.Max != 0 {
		t.Errorf("stats of all-nodata grid: %+v", s)
	}
}

func TestGeorefRoundTrip(t *testing.T) {
	geo := Georef{OriginX: -90.5, OriginY: 36.7, PixelW: 0.0003, PixelH: 0.0003}
	f := func(px, py uint8) bool {
		x, y := int(px), int(py)
		gx, gy := geo.PixelToGeo(x, y)
		rx, ry := geoToPixel(geo, gx, gy)
		return rx == x && ry == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGeorefKnown(t *testing.T) {
	geo := Georef{OriginX: 0, OriginY: 10, PixelW: 1, PixelH: 1}
	gx, gy := geo.PixelToGeo(0, 0)
	if gx != 0.5 || gy != 9.5 {
		t.Errorf("PixelToGeo(0,0) = %v,%v", gx, gy)
	}
	x, y := geoToPixel(geo, 2.3, 7.2)
	if x != 2 || y != 2 {
		t.Errorf("geoToPixel = %d,%d, want 2,2", x, y)
	}
}

func TestEqual(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	if !Equal(a, b) {
		t.Error("zero grids not equal")
	}
	nan := float32(math.NaN())
	a.Data[0], b.Data[0] = nan, nan
	if !Equal(a, b) {
		t.Error("NaN-matched grids not equal")
	}
	b.Data[3] = 1
	if Equal(a, b) {
		t.Error("different grids equal")
	}
	if Equal(a, New(2, 3)) {
		t.Error("different shapes equal")
	}
}

// geoToPixel returns the pixel of g containing geographic point (gx,gy),
// the inverse PixelToGeo is checked against.
func geoToPixel(g Georef, gx, gy float64) (x, y int) {
	return int(math.Floor((gx - g.OriginX) / g.PixelW)), int(math.Floor((g.OriginY - gy) / g.PixelH))
}
