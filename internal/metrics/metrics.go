// Package metrics implements the scientific image-comparison metrics used
// in step 3 of the NSDF tutorial workflow (static visualization &
// validation): participants compare the original TIFF-based rasters with
// the IDX-derived rasters "using scientific metrics" to confirm that the
// conversion preserved data accuracy. The metrics provided are RMSE, MAE,
// maximum absolute error, PSNR, and SSIM.
package metrics

import (
	"fmt"
	"math"
)

// Report bundles every comparison metric for a pair of rasters.
type Report struct {
	// N is the number of finite sample pairs compared.
	N int
	// RMSE is the root-mean-square error.
	RMSE float64
	// MAE is the mean absolute error.
	MAE float64
	// MaxAbs is the maximum absolute error.
	MaxAbs float64
	// PSNR is the peak signal-to-noise ratio in dB, computed against the
	// dynamic range of the reference raster. +Inf for identical rasters.
	PSNR float64
	// SSIM is the mean structural similarity index over 8x8 windows.
	SSIM float64
	// Identical reports whether every compared pair matched bit-for-bit.
	Identical bool
}

// String renders the report in the one-line form used by the experiment
// harness.
func (r Report) String() string {
	return fmt.Sprintf("n=%d rmse=%.6g mae=%.6g max=%.6g psnr=%.4gdB ssim=%.6f identical=%v",
		r.N, r.RMSE, r.MAE, r.MaxAbs, r.PSNR, r.SSIM, r.Identical)
}

// Compare computes all metrics between a reference raster and a test
// raster of identical dimensions (width w, height h, row-major). Sample
// pairs where either side is non-finite are excluded from the error sums
// (matching how nodata pixels are treated in the tutorial's validation
// notebooks), except that a finite/non-finite mismatch breaks Identical.
func Compare(ref, test []float32, w, h int) (Report, error) {
	if w <= 0 || h <= 0 {
		return Report{}, fmt.Errorf("metrics: invalid dimensions %dx%d", w, h)
	}
	if len(ref) != w*h || len(test) != w*h {
		return Report{}, fmt.Errorf("metrics: raster sizes %d and %d do not match %dx%d", len(ref), len(test), w, h)
	}
	var (
		sumSq, sumAbs, maxAbs float64
		n                     int
		lo                    = math.Inf(1)
		hi                    = math.Inf(-1)
		identical             = true
	)
	for i := range ref {
		a, b := float64(ref[i]), float64(test[i])
		aFin, bFin := !math.IsNaN(a) && !math.IsInf(a, 0), !math.IsNaN(b) && !math.IsInf(b, 0)
		if math.Float32bits(ref[i]) != math.Float32bits(test[i]) {
			identical = false
		}
		if !aFin || !bFin {
			if aFin != bFin {
				identical = false
			}
			continue
		}
		d := math.Abs(a - b)
		sumSq += d * d
		sumAbs += d
		if d > maxAbs {
			maxAbs = d
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
		n++
	}
	rep := Report{N: n, MaxAbs: maxAbs, Identical: identical}
	if n > 0 {
		rep.RMSE = math.Sqrt(sumSq / float64(n))
		rep.MAE = sumAbs / float64(n)
		rng := hi - lo
		switch {
		case rep.RMSE == 0:
			rep.PSNR = math.Inf(1)
		case rng == 0:
			rep.PSNR = 0
		default:
			rep.PSNR = 20 * math.Log10(rng/rep.RMSE)
		}
	}
	rep.SSIM = ssim(ref, test, w, h)
	return rep, nil
}

// ssim computes the mean SSIM over non-overlapping 8x8 windows, using the
// dynamic range of ref for the stabilising constants. Windows containing
// non-finite samples are skipped. Returns 1 for degenerate inputs with no
// usable windows (nothing contradicts similarity).
func ssim(ref, test []float32, w, h int) float64 {
	const win = 8
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range ref {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	dynRange := hi - lo
	if dynRange <= 0 || math.IsInf(dynRange, 0) {
		dynRange = 1
	}
	c1 := (0.01 * dynRange) * (0.01 * dynRange)
	c2 := (0.03 * dynRange) * (0.03 * dynRange)

	var total float64
	windows := 0
	for y0 := 0; y0+win <= h || (y0 == 0 && h < win); y0 += win {
		bh := win
		if y0+bh > h {
			bh = h - y0
		}
		for x0 := 0; x0+win <= w || (x0 == 0 && w < win); x0 += win {
			bw := win
			if x0+bw > w {
				bw = w - x0
			}
			v, ok := ssimWindow(ref, test, w, x0, y0, bw, bh, c1, c2)
			if ok {
				total += v
				windows++
			}
		}
	}
	if windows == 0 {
		return 1
	}
	return total / float64(windows)
}

func ssimWindow(ref, test []float32, stride, x0, y0, bw, bh int, c1, c2 float64) (float64, bool) {
	var muA, muB float64
	n := float64(bw * bh)
	for y := y0; y < y0+bh; y++ {
		for x := x0; x < x0+bw; x++ {
			a, b := float64(ref[y*stride+x]), float64(test[y*stride+x])
			if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
				return 0, false
			}
			muA += a
			muB += b
		}
	}
	muA /= n
	muB /= n
	var varA, varB, cov float64
	for y := y0; y < y0+bh; y++ {
		for x := x0; x < x0+bw; x++ {
			da := float64(ref[y*stride+x]) - muA
			db := float64(test[y*stride+x]) - muB
			varA += da * da
			varB += db * db
			cov += da * db
		}
	}
	varA /= n
	varB /= n
	cov /= n
	num := (2*muA*muB + c1) * (2*cov + c2)
	den := (muA*muA + muB*muB + c1) * (varA + varB + c2)
	return num / den, true
}
