package dem

import (
	"math"
	"testing"
	"testing/quick"

	"nsdfgo/internal/raster"
)

func TestFBMDeterministic(t *testing.T) {
	a := FBM(64, 64, 42, DefaultFBM())
	b := FBM(64, 64, 42, DefaultFBM())
	if !raster.Equal(a, b) {
		t.Error("same seed produced different terrain")
	}
	c := FBM(64, 64, 43, DefaultFBM())
	if raster.Equal(a, c) {
		t.Error("different seeds produced identical terrain")
	}
}

func TestFBMRange(t *testing.T) {
	g := FBM(128, 128, 1, DefaultFBM())
	lo, hi, ok := g.MinMax()
	if !ok {
		t.Fatal("no finite samples")
	}
	if lo < 0 || hi > 1 {
		t.Errorf("FBM out of [0,1]: [%v,%v]", lo, hi)
	}
	if hi-lo < 0.1 {
		t.Errorf("FBM nearly constant: [%v,%v]", lo, hi)
	}
}

func TestFBMSmoothness(t *testing.T) {
	// Neighbouring samples must be close: the field is C1 noise, not white
	// noise. Compare adjacent-pixel delta with global range.
	g := FBM(128, 128, 7, DefaultFBM())
	var maxStep float64
	for y := 0; y < g.H; y++ {
		for x := 1; x < g.W; x++ {
			d := math.Abs(float64(g.At(x, y) - g.At(x-1, y)))
			if d > maxStep {
				maxStep = d
			}
		}
	}
	if maxStep > 0.25 {
		t.Errorf("max adjacent-pixel step %v; field looks like white noise", maxStep)
	}
}

func TestFBMRidgedDiffersFromSmooth(t *testing.T) {
	o := DefaultFBM()
	smooth := FBM(64, 64, 5, o)
	o.Ridged = true
	ridged := FBM(64, 64, 5, o)
	if raster.Equal(smooth, ridged) {
		t.Error("ridged flag has no effect")
	}
}

func TestFBMOctavesClamped(t *testing.T) {
	g := FBM(16, 16, 1, FBMOptions{Octaves: 0, Frequency: 1.0 / 8, Lacunarity: 2, Gain: 0.5})
	if _, _, ok := g.MinMax(); !ok {
		t.Error("zero-octave FBM produced no data")
	}
}

func TestScale(t *testing.T) {
	g := raster.New(2, 1)
	g.Data = []float32{0, 1}
	Scale(g, 100, 500)
	if g.Data[0] != 100 || g.Data[1] != 500 {
		t.Errorf("Scale: %v", g.Data)
	}
}

func TestTennesseeScene(t *testing.T) {
	g := Tennessee(256, 64, 11)
	if g.Geo == nil {
		t.Fatal("no georeferencing")
	}
	// The eastern third must be significantly higher than the western third
	// (Appalachians vs Mississippi plain).
	west, _ := g.Crop(0, 0, 64, 64)
	east, _ := g.Crop(192, 0, 64, 64)
	ws, es := west.ComputeStats(), east.ComputeStats()
	if es.Mean < ws.Mean+100 {
		t.Errorf("east mean %.0f m not clearly above west mean %.0f m", es.Mean, ws.Mean)
	}
	if ws.Min < 0 {
		t.Errorf("negative elevation %v in plain", ws.Min)
	}
}

func TestCONUSScene(t *testing.T) {
	g := CONUS(512, 128, 13)
	if g.Geo == nil {
		t.Fatal("no georeferencing")
	}
	// Western cordillera must tower over the central plains.
	westIdx := 512 * 18 / 100
	centerIdx := 512 * 55 / 100
	west, _ := g.Crop(westIdx-32, 0, 64, 128)
	center, _ := g.Crop(centerIdx-32, 0, 64, 128)
	ws, cs := west.ComputeStats(), center.ComputeStats()
	if ws.Mean < cs.Mean+300 {
		t.Errorf("cordillera mean %.0f m not clearly above plains mean %.0f m", ws.Mean, cs.Mean)
	}
}

func TestRegion(t *testing.T) {
	for region, want := range map[string]*raster.Grid{"tennessee": Tennessee(32, 16, 5), "conus": CONUS(32, 16, 5)} {
		gen, err := Region(region)
		if err != nil {
			t.Fatalf("%s: %v", region, err)
		}
		if !raster.Equal(gen(32, 16, 5), want) {
			t.Errorf("%s: generator differs from the scene function", region)
		}
	}
	if _, err := Region("mars"); err == nil {
		t.Error("unknown region accepted")
	}
}

func TestSceneGeorefCoversBoundingBox(t *testing.T) {
	g := Tennessee(100, 40, 1)
	gx, _ := g.Geo.PixelToGeo(99, 0)
	if gx > -81.5 || gx < -82.5 {
		t.Errorf("east edge longitude %v not near -81.65", gx)
	}
}

func TestLatticeValueRangeProperty(t *testing.T) {
	f := func(ix, iy int32, seed uint64) bool {
		v := latticeValue(int64(ix), int64(iy), seed)
		return v >= -1 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestValueNoiseContinuityProperty(t *testing.T) {
	// Noise sampled at nearby points must be nearby (Lipschitz-ish bound).
	f := func(xi, yi uint16) bool {
		x := float64(xi) / 100
		y := float64(yi) / 100
		a := valueNoise(x, y, 99)
		b := valueNoise(x+0.001, y, 99)
		return math.Abs(a-b) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFBM256(b *testing.B) {
	o := DefaultFBM()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FBM(256, 256, uint64(i), o)
	}
}

func BenchmarkTennessee512(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Tennessee(512, 128, uint64(i))
	}
}
