package dashboard

import (
	"net/http"
	"strconv"

	"nsdfgo/internal/colormap"
	"nsdfgo/internal/metrics"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/tiff"
)

// handleHistogram serves a fixed-bin histogram of the selected region —
// the distributional view behind "ad hoc analysis on selected
// subregions". Non-finite samples land in a separate nodata counter.
func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	bins := 32
	if bs := qv.Get("bins"); bs != "" {
		v, err := strconv.Atoi(bs)
		if err != nil || v < 2 || v > 1024 {
			http.Error(w, "dashboard: bins outside [2,1024]", http.StatusBadRequest)
			return
		}
		bins = v
	}
	res, ok := s.readView(w, r, qv)
	if !ok {
		return
	}
	grid := res.Grid
	lo, hi, ok := grid.MinMax()
	counts := make([]int, bins)
	nodata := 0
	if ok && hi > lo {
		scale := float64(bins) / float64(hi-lo)
		for _, v := range grid.Data {
			f := float64(v)
			if !finite(f) {
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
			if finite(float64(v)) {
				counts[0]++
			} else {
				nodata++
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
	e, req, err := s.regionRequest(qv)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	x, errX := strconv.Atoi(qv.Get("x"))
	y, errY := strconv.Atoi(qv.Get("y"))
	if errX != nil || errY != nil {
		http.Error(w, "dashboard: probe needs integer x and y", http.StatusBadRequest)
		return
	}
	values, err := e.ProbePoint(r.Context(), req.Field, x, y)
	if err != nil {
		readError(w, err)
		return
	}
	writeJSON(w, map[string]any{"field": req.Field, "x": x, "y": y, "values": values})
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
	ramp := raster.New(width, height)
	for i := range ramp.Data {
		ramp.Data[i] = float32(i%width) / float32(width-1)
	}
	img := RenderImage(ramp, palette, colormap.Range{Min: 0, Max: 1})
	w.Header().Set("Content-Type", "image/png")
	if err := pngEncoder.Encode(w, img); err != nil {
		s.bodyFailed(r, err)
	}
}

// handleExportTIFF serves the selected region as a GeoTIFF — the
// "download for further analysis" path for users whose tooling speaks
// TIFF rather than NumPy.
func (s *Server) handleExportTIFF(w http.ResponseWriter, r *http.Request) {
	res, ok := s.readView(w, r, r.URL.Query())
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "image/tiff")
	w.Header().Set("Content-Disposition", `attachment; filename="nsdf_selection.tif"`)
	if err := tiff.Encode(w, tiff.FromGrid(res.Grid), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
		s.bodyFailed(r, err)
	}
}

// handleCompare serves side-by-side metrics of two fields over the same
// region — the ad-hoc analysis behind "explore multiple datasets
// simultaneously" (e.g. prediction vs truth in the SOMOSPIE scenario).
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	e, req, err := s.regionRequest(qv)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fieldB := qv.Get("field_b")
	if fieldB == "" {
		http.Error(w, "dashboard: compare needs field_b", http.StatusBadRequest)
		return
	}
	resA, err := e.Read(r.Context(), req)
	if err != nil {
		readError(w, err)
		return
	}
	reqB := req
	reqB.Field = fieldB // Read rejects a field the dataset does not have
	resB, err := e.Read(r.Context(), reqB)
	if err != nil {
		readError(w, err)
		return
	}
	gridA := resA.Grid
	rep, err := metrics.Compare(gridA.Data, resB.Grid.Data, gridA.W, gridA.H)
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
