package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ramp(w, h int) []float32 {
	out := make([]float32, w*h)
	for i := range out {
		out[i] = float32(i)
	}
	return out
}

func TestCompareIdentical(t *testing.T) {
	a := ramp(16, 16)
	rep, err := Compare(a, a, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Error("identical rasters not reported Identical")
	}
	if rep.RMSE != 0 || rep.MAE != 0 || rep.MaxAbs != 0 {
		t.Errorf("nonzero errors on identical rasters: %+v", rep)
	}
	if !math.IsInf(rep.PSNR, 1) {
		t.Errorf("PSNR = %v, want +Inf", rep.PSNR)
	}
	if math.Abs(rep.SSIM-1) > 1e-12 {
		t.Errorf("SSIM = %v, want 1", rep.SSIM)
	}
	if rep.N != 256 {
		t.Errorf("N = %d, want 256", rep.N)
	}
}

func TestCompareKnownError(t *testing.T) {
	a := []float32{0, 0, 0, 0}
	b := []float32{1, -1, 1, -1}
	rep, err := Compare(a, b, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RMSE != 1 {
		t.Errorf("RMSE = %v, want 1", rep.RMSE)
	}
	if rep.MAE != 1 {
		t.Errorf("MAE = %v, want 1", rep.MAE)
	}
	if rep.MaxAbs != 1 {
		t.Errorf("MaxAbs = %v, want 1", rep.MaxAbs)
	}
	if rep.Identical {
		t.Error("different rasters reported Identical")
	}
}

func TestCompareDimensionValidation(t *testing.T) {
	a := ramp(4, 4)
	if _, err := Compare(a, a, 0, 4); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Compare(a, a[:8], 4, 4); err == nil {
		t.Error("mismatched sizes accepted")
	}
}

func TestCompareNaNHandling(t *testing.T) {
	nan := float32(math.NaN())
	a := []float32{1, 2, nan, 4}
	b := []float32{1, 2, nan, 4}
	rep, err := Compare(a, b, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 3 {
		t.Errorf("N = %d, want 3 (NaN pair excluded)", rep.N)
	}
	if !rep.Identical {
		t.Error("bitwise-equal rasters with NaN not Identical")
	}
	// Finite vs NaN must break Identical but not poison errors.
	c := []float32{1, 2, 3, 4}
	rep, err = Compare(a, c, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Identical {
		t.Error("NaN vs finite reported Identical")
	}
	if rep.RMSE != 0 {
		t.Errorf("RMSE = %v, want 0 (mismatched-finite pair skipped)", rep.RMSE)
	}
}

func TestComparePSNRScalesWithError(t *testing.T) {
	a := ramp(32, 32)
	small := make([]float32, len(a))
	big := make([]float32, len(a))
	for i := range a {
		small[i] = a[i] + 0.1
		big[i] = a[i] + 10
	}
	rs, _ := Compare(a, small, 32, 32)
	rb, _ := Compare(a, big, 32, 32)
	if rs.PSNR <= rb.PSNR {
		t.Errorf("PSNR should fall with error: small=%v big=%v", rs.PSNR, rb.PSNR)
	}
}

func TestSSIMDropsWithStructuralChange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := make([]float32, 64*64)
	for i := range a {
		a[i] = float32(math.Sin(float64(i%64)/10) * 100)
	}
	shuffled := make([]float32, len(a))
	copy(shuffled, a)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ra, _ := Compare(a, a, 64, 64)
	rs, _ := Compare(a, shuffled, 64, 64)
	if rs.SSIM >= ra.SSIM {
		t.Errorf("SSIM should drop when structure destroyed: same=%v shuffled=%v", ra.SSIM, rs.SSIM)
	}
	if rs.SSIM > 0.5 {
		t.Errorf("SSIM of shuffled raster = %v, want < 0.5", rs.SSIM)
	}
}

func TestCompareSmallRaster(t *testing.T) {
	// Rasters smaller than the SSIM window must still work.
	a := []float32{1, 2, 3, 4, 5, 6}
	rep, err := Compare(a, a, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SSIM < 0.99 {
		t.Errorf("SSIM on tiny identical raster = %v", rep.SSIM)
	}
}

func TestCompareConstantRaster(t *testing.T) {
	a := make([]float32, 64)
	for i := range a {
		a[i] = 7
	}
	rep, err := Compare(a, a, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical || rep.RMSE != 0 {
		t.Errorf("constant raster self-compare: %+v", rep)
	}
}

func TestCompareSymmetryOfErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16
		a := make([]float32, n*n)
		b := make([]float32, n*n)
		for i := range a {
			a[i] = float32(r.NormFloat64() * 10)
			b[i] = a[i] + float32(r.NormFloat64())
		}
		ra, err1 := Compare(a, b, n, n)
		rb, err2 := Compare(b, a, n, n)
		if err1 != nil || err2 != nil {
			return false
		}
		// RMSE/MAE/MaxAbs are symmetric; PSNR/SSIM need not be (reference range).
		return math.Abs(ra.RMSE-rb.RMSE) < 1e-9 &&
			math.Abs(ra.MAE-rb.MAE) < 1e-9 &&
			math.Abs(ra.MaxAbs-rb.MaxAbs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{N: 4, RMSE: 0.5, Identical: false}
	s := rep.String()
	if s == "" {
		t.Error("empty report string")
	}
}

func BenchmarkCompare1M(b *testing.B) {
	const n = 1024
	a := ramp(n, n)
	c := make([]float32, len(a))
	copy(c, a)
	b.SetBytes(int64(8 * len(a)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(a, c, n, n); err != nil {
			b.Fatal(err)
		}
	}
}
