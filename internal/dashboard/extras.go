package dashboard

import (
	"image"
	"math"
	"net/http"
	"strconv"

	"nsdfgo/internal/colormap"
	"nsdfgo/internal/metrics"
	"nsdfgo/internal/tiff"
)

// extraRoutes dispatches the secondary dashboard endpoints. Returns false
// when the path is not handled here.
func (s *Server) extraRoutes(w http.ResponseWriter, r *http.Request) bool {
	switch r.URL.Path {
	case "/api/legend":
		s.handleLegend(w, r)
	case "/api/export.tif":
		s.handleExportTIFF(w, r)
	case "/api/compare":
		s.handleCompare(w, r)
	case "/api/probe":
		s.handleProbe(w, r)
	case "/api/histogram":
		s.handleHistogram(w, r)
	default:
		return false
	}
	return true
}

// handleHistogram serves a fixed-bin histogram of the selected region —
// the distributional view behind "ad hoc analysis on selected
// subregions". Non-finite samples land in a separate nodata counter.
func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request) {
	e, req, err := s.regionRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bins := 32
	if bs := r.URL.Query().Get("bins"); bs != "" {
		v, err := strconv.Atoi(bs)
		if err != nil || v < 2 || v > 1024 {
			http.Error(w, "dashboard: bins outside [2,1024]", http.StatusBadRequest)
			return
		}
		bins = v
	}
	grid, res, err := s.readRegion(e, req, r)
	if err != nil {
		readError(w, err)
		return
	}
	lo, hi, ok := grid.MinMax()
	counts := make([]int, bins)
	nodata := 0
	if ok && hi > lo {
		scale := float64(bins) / float64(hi-lo)
		for _, v := range grid.Data {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				nodata++
				continue
			}
			idx := int((f - float64(lo)) * scale)
			if idx >= bins {
				idx = bins - 1
			}
			counts[idx]++
		}
	} else {
		for _, v := range grid.Data {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				nodata++
			} else {
				counts[0]++
			}
		}
		hi = lo + 1
	}
	writeJSON(w, map[string]any{
		"level": res.Level, "bins": bins,
		"min": lo, "max": hi,
		"counts": counts, "nodata": nodata,
	})
}

// handleProbe serves one pixel's value across every timestep — "the time
// slider is a critical tool for navigating through temporal data,
// enabling users to observe changes and trends over time".
func (s *Server) handleProbe(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	e, err := s.engine(qv.Get("dataset"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	meta := e.Dataset().Meta
	field := qv.Get("field")
	if field == "" && len(meta.Fields) > 0 {
		field = meta.Fields[0].Name
	}
	x, errX := strconv.Atoi(qv.Get("x"))
	y, errY := strconv.Atoi(qv.Get("y"))
	if errX != nil || errY != nil {
		http.Error(w, "dashboard: probe needs integer x and y", http.StatusBadRequest)
		return
	}
	values, err := e.ProbePoint(r.Context(), field, x, y)
	if err != nil {
		readError(w, err)
		return
	}
	writeJSON(w, map[string]any{"field": field, "x": x, "y": y, "values": values})
}

// handleLegend serves a horizontal colorbar PNG for a palette, used by
// the UI to label the colormap range.
func (s *Server) handleLegend(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	name := qv.Get("palette")
	if name == "" {
		name = "viridis"
	}
	palette, err := colormap.Lookup(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	width := 256
	if ws := qv.Get("width"); ws != "" {
		v, err := strconv.Atoi(ws)
		if err != nil || v < 8 || v > 4096 {
			http.Error(w, "dashboard: legend width outside [8,4096]", http.StatusBadRequest)
			return
		}
		width = v
	}
	const height = 24
	img := image.NewRGBA(image.Rect(0, 0, width, height))
	for x := 0; x < width; x++ {
		c := palette.At(float64(x) / float64(width-1))
		for y := 0; y < height; y++ {
			img.SetRGBA(x, y, c)
		}
	}
	w.Header().Set("Content-Type", "image/png")
	if err := pngEncoder.Encode(w, img); err != nil {
		s.bodyFailed(r, err)
	}
}

// handleExportTIFF serves the selected region as a GeoTIFF — the
// "download for further analysis" path for users whose tooling speaks
// TIFF rather than NumPy.
func (s *Server) handleExportTIFF(w http.ResponseWriter, r *http.Request) {
	e, req, err := s.regionRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	grid, _, err := s.readRegion(e, req, r)
	if err != nil {
		readError(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/tiff")
	w.Header().Set("Content-Disposition", `attachment; filename="nsdf_selection.tif"`)
	if err := tiff.Encode(w, tiff.FromGrid(grid), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
		s.bodyFailed(r, err)
	}
}

// handleCompare serves side-by-side metrics of two fields over the same
// region — the ad-hoc analysis behind "explore multiple datasets
// simultaneously" (e.g. prediction vs truth in the SOMOSPIE scenario).
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	e, req, err := s.regionRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fieldB := r.URL.Query().Get("field_b")
	if fieldB == "" {
		http.Error(w, "dashboard: compare needs field_b", http.StatusBadRequest)
		return
	}
	gridA, resA, err := s.readRegion(e, req, r)
	if err != nil {
		readError(w, err)
		return
	}
	reqB := req
	reqB.Field = fieldB
	reqB.Level = resA.Level // identical lattice
	gridB, _, err := s.readRegion(e, reqB, r)
	if err != nil {
		readError(w, err)
		return
	}
	rep, err := metrics.Compare(gridA.Data, gridB.Data, gridA.W, gridA.H)
	if err != nil {
		s.internalError(w, r, err)
		return
	}
	writeJSON(w, map[string]any{
		"field_a": req.Field, "field_b": fieldB, "level": resA.Level,
		"n": rep.N, "rmse": rep.RMSE, "mae": rep.MAE, "max": rep.MaxAbs,
		"psnr": jsonSafe(rep.PSNR), "ssim": rep.SSIM, "identical": rep.Identical,
	})
}

// jsonSafe maps ±Inf (e.g. PSNR of identical rasters) to a large
// sentinel, since JSON has no Inf.
func jsonSafe(v float64) float64 {
	const bound = 1e9
	if v > bound {
		return bound
	}
	if v < -bound {
		return -bound
	}
	return v
}
