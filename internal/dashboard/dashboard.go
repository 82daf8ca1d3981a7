// Package dashboard implements the NSDF dashboard service of tutorial
// step 4 (Fig. 7): interactive, progressive visualization and analysis of
// IDX datasets over HTTP. It provides the features the paper enumerates —
// a dataset dropdown, per-dataset variable switching, a time slider,
// resolution sliders, horizontal/vertical slices, a snipping tool that
// returns a NumPy array or a Python extraction script, selectable color
// palettes with manual or dynamic ranges, and playback metadata for
// automated walkthroughs.
package dashboard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"nsdfgo/internal/colormap"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

// Server is the dashboard HTTP service. Register datasets, then serve.
type Server struct {
	mu      sync.RWMutex
	engines map[string]*query.Engine
	reg     *telemetry.Registry
	tel     *telemetry.HTTPMetrics
	traces  *trace.Collector
	logger  *slog.Logger
	flight  *flight.Recorder

	// Federation state (EnableFederation): peer debug endpoints the
	// dashboard pulls remote spans from when /debug/traces?federate=1
	// assembles a cluster-wide trace.
	peers      map[string]string
	fedTimeout time.Duration
	fedClient  *http.Client
}

// NewServer returns an empty dashboard.
func NewServer() *Server {
	return &Server{engines: make(map[string]*query.Engine)}
}

// EnableTelemetry attaches a metrics registry: requests are counted per
// route and status class, timed into a latency histogram, and the
// registry's exposition is served at /metrics. Datasets registered after
// this call are instrumented automatically (block I/O and cache series
// labelled with the dataset name). Here and in Register the registry,
// which has a lock of its own, is called outside s.mu.
func (s *Server) EnableTelemetry(reg *telemetry.Registry) {
	tel := telemetry.NewHTTPMetrics(reg, "dashboard")
	s.mu.Lock()
	s.reg, s.tel = reg, tel
	engines := maps.Clone(s.engines)
	s.mu.Unlock()
	for name, e := range engines {
		e.Instrument(reg, name)
	}
}

// SetLogger routes the server's own log records (internal server
// errors, with their trace IDs) to l; nil keeps slog.Default().
func (s *Server) SetLogger(l *slog.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logger = l
}

// log returns the configured logger, defaulting to slog.Default().
func (s *Server) log() *slog.Logger {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.logger != nil {
		return s.logger
	}
	return slog.Default()
}

// EnableTracing serves the collector's retained request traces at
// /debug/traces. The collector itself is wired into requests by the
// telemetry.WithTracing middleware the cmd server wraps around this
// handler; the dashboard only exposes the viewing endpoint.
func (s *Server) EnableTracing(col *trace.Collector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces = col
}

// Register adds a dataset under the given display name (the dropdown
// entry). Registering a duplicate name replaces the entry. The engine
// is instrumented before requests can reach it.
func (s *Server) Register(name string, engine *query.Engine) {
	s.mu.RLock()
	reg := s.reg
	s.mu.RUnlock()
	if reg != nil {
		engine.Instrument(reg, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engines[name] = engine
}

// engine resolves a dataset name.
func (s *Server) engine(name string) (*query.Engine, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.engines[name]
	if !ok {
		return nil, fmt.Errorf("dashboard: unknown dataset %q", name)
	}
	return e, nil
}

// DatasetInfo is the dropdown metadata for one dataset.
type DatasetInfo struct {
	// Name is the registered display name.
	Name string `json:"name"`
	// Fields lists the selectable variables.
	Fields []string `json:"fields"`
	// Width and Height are the full-resolution dimensions.
	Width  int `json:"width"`
	Height int `json:"height"`
	// Depth is the Z extent of 3D datasets (0 for 2D rasters); 3D
	// datasets are served as XY slices selected with the z parameter.
	Depth int `json:"depth,omitempty"`
	// Timesteps is the time-slider extent.
	Timesteps int `json:"timesteps"`
	// MaxLevel is the resolution-slider extent.
	MaxLevel int `json:"max_level"`
	// Palettes lists the available colormaps.
	Palettes []string `json:"palettes"`
}

// Datasets returns dropdown metadata for every registered dataset.
func (s *Server) Datasets() []DatasetInfo {
	palettes := colormap.Names()
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.engines))
	for n := range s.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]DatasetInfo, 0, len(names))
	for _, n := range names {
		meta := s.engines[n].Dataset().Meta
		info := DatasetInfo{
			Name:      n,
			Width:     meta.Dims[0],
			Height:    meta.Dims[1],
			Timesteps: meta.Timesteps,
			MaxLevel:  meta.MaxLevel(),
			Palettes:  palettes,
		}
		if len(meta.Dims) == 3 {
			info.Depth = meta.Dims[2]
		}
		for _, f := range meta.Fields {
			info.Fields = append(info.Fields, f.Name)
		}
		out = append(out, info)
	}
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	reg, tel, traces, fl, peers := s.reg, s.tel, s.traces, s.flight, s.peers
	s.mu.RUnlock()
	if traces != nil && r.URL.Path == "/debug/traces" {
		if peers != nil && r.URL.Query().Get("federate") == "1" {
			s.handleFederatedTrace(w, r)
			return
		}
		traces.Handler().ServeHTTP(w, r)
		return
	}
	if fl != nil && r.URL.Path == "/debug/flightrecorder" {
		fl.Handler().ServeHTTP(w, r)
		return
	}
	if tel == nil {
		s.route(w, r)
		return
	}
	if r.URL.Path == "/metrics" {
		reg.Handler().ServeHTTP(w, r)
		return
	}
	rec := telemetry.NewStatusRecorder(w)
	start := time.Now()
	handled := s.route(rec, r)
	route := r.URL.Path
	if !handled {
		route = "other"
	}
	tel.ObserveTraced(route, rec.Code, time.Since(start), trace.ID(r.Context()))
}

// routes maps every dashboard path to its handler. ServeHTTP labels
// telemetry with the path only when it is a key here, which bounds the
// route label's cardinality.
var routes = map[string]func(*Server, http.ResponseWriter, *http.Request){
	"/healthz":        func(_ *Server, w http.ResponseWriter, _ *http.Request) { telemetry.WriteHealth(w, "dashboard") },
	"/api/datasets":   func(s *Server, w http.ResponseWriter, _ *http.Request) { writeJSON(w, s.Datasets()) },
	"/api/render":     (*Server).handleRender,
	"/api/data":       (*Server).handleData,
	"/api/script":     (*Server).handleScript,
	"/api/slice":      (*Server).handleSlice,
	"/api/stats":      (*Server).handleStats,
	"/api/playback":   (*Server).handlePlayback,
	"/api/legend":     (*Server).handleLegend,
	"/api/export.tif": (*Server).handleExportTIFF,
	"/api/compare":    (*Server).handleCompare,
	"/api/probe":      (*Server).handleProbe,
	"/api/histogram":  (*Server).handleHistogram,
	"/":               (*Server).handleIndex,
}

// route dispatches to the endpoint handlers, reporting whether the path
// named a known route.
func (s *Server) route(w http.ResponseWriter, r *http.Request) bool {
	h, ok := routes[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return false
	}
	h(s, w, r)
	return true
}

// regionRequest is the dashboard's one request boundary: it parses the
// dataset, field and integer view parameters of the query string and
// returns the engine's resolved request, so every handler reads or
// describes a view the engine has already validated. A box the query
// leaves open extends to the dataset's edge.
func (s *Server) regionRequest(qv url.Values) (*query.Engine, query.Request, error) {
	e, err := s.engine(qv.Get("dataset"))
	if err != nil {
		return nil, query.Request{}, err
	}
	req := query.Request{Field: qv.Get("field"), Level: query.LevelFull}
	box := idx.Box{X1: math.MaxInt, Y1: math.MaxInt} // Resolve clips it
	for _, p := range []struct {
		name string
		v    *int
	}{
		{"t", &req.Time}, {"z", &req.Z},
		{"x0", &box.X0}, {"y0", &box.Y0}, {"x1", &box.X1}, {"y1", &box.Y1},
		{"level", &req.Level}, {"max_samples", &req.MaxSamples},
	} {
		if v := qv.Get(p.name); v != "" {
			if *p.v, err = strconv.Atoi(v); err != nil {
				return nil, req, fmt.Errorf("dashboard: bad %s=%q", p.name, v)
			}
		}
	}
	req.Box = box
	if req.MaxSamples > 0 {
		req.Level = query.LevelAuto
	}
	req, err = e.Resolve(req)
	return e, req, err
}

// readView reads the view the query names, answering the client itself
// when the view is bad or the read fails.
func (s *Server) readView(w http.ResponseWriter, r *http.Request, qv url.Values) (query.Result, bool) {
	e, req, err := s.regionRequest(qv)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return query.Result{}, false
	}
	res, err := e.Read(r.Context(), req)
	if err != nil {
		readError(w, err)
		return query.Result{}, false
	}
	return res, true
}

// handleRender serves a PNG of the requested region ("the resolution
// sliders enable users to adjust the granularity of the data").
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	paletteName := qv.Get("palette")
	if paletteName == "" {
		paletteName = "viridis"
	}
	palette, err := colormap.Lookup(paletteName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A manual colormap range, or else a dynamic one from the delivered data.
	var rng colormap.Range
	minS, maxS := qv.Get("min"), qv.Get("max")
	manual := minS != "" && maxS != ""
	if manual {
		lo, err1 := strconv.ParseFloat(minS, 64)
		hi, err2 := strconv.ParseFloat(maxS, 64)
		if err1 != nil || err2 != nil || !finite(lo) || !finite(hi) {
			http.Error(w, "dashboard: min and max must be finite numbers", http.StatusBadRequest)
			return
		}
		rng = colormap.Range{Min: lo, Max: hi}
	}
	res, ok := s.readView(w, r, qv)
	if !ok {
		return
	}
	if !manual {
		rng = colormap.DynamicRange(res.Grid.Data)
	}
	img := RenderImage(res.Grid, palette, rng)
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("X-NSDF-Level", strconv.Itoa(res.Level))
	w.Header().Set("X-NSDF-Samples", strconv.Itoa(res.Stats.Samples))
	if err := pngEncoder.Encode(w, img); err != nil {
		s.bodyFailed(r, err)
	}
}

// pngEncoder encodes every PNG the dashboard serves. Its buffer pool
// carries the encoder's zlib state and row buffers from one image to
// the next; Encode returns them on every path, a failed write included.
var pngEncoder = png.Encoder{BufferPool: new(pngBuffers)}

type pngBuffers struct{ pool sync.Pool }

func (b *pngBuffers) Get() *png.EncoderBuffer {
	eb, _ := b.pool.Get().(*png.EncoderBuffer)
	return eb // nil makes the encoder build one
}

func (b *pngBuffers) Put(eb *png.EncoderBuffer) { b.pool.Put(eb) }

// RenderImage maps a grid through a palette into an 8-bit paletted
// image, one index byte per sample. Indices 0..254 are the palette
// sampled at 255 evenly spaced positions, so a pixel's colour is the
// palette's at its normalised value rounded to the nearest 1/254;
// index 255 is transparent, for NaN samples.
func RenderImage(g *raster.Grid, palette colormap.Map, rng colormap.Range) *image.Paletted {
	pal := make(color.Palette, 256)
	for i := range 255 {
		pal[i] = palette.At(float64(i) / 254)
	}
	pal[255] = color.RGBA{}
	img := image.NewPaletted(image.Rect(0, 0, g.W, g.H), pal)
	for i, v := range g.Data {
		if t := rng.Normalize(float64(v)); math.IsNaN(t) {
			img.Pix[i] = 255
		} else {
			img.Pix[i] = uint8(t*254 + 0.5)
		}
	}
	return img
}

// handleData serves the snipping tool's NumPy array download.
func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	res, ok := s.readView(w, r, r.URL.Query())
	if !ok {
		return
	}
	grid := res.Grid
	header, err := npyHeader(grid)
	if err != nil {
		s.internalError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="nsdf_selection.npy"`)
	w.Header().Set("Content-Length", strconv.Itoa(len(header)+4*len(grid.Data)))
	if err := writeNPY(w, header, grid.Data); err != nil {
		s.bodyFailed(r, err)
	}
}

// handleScript serves the snipping tool's generated Python script.
func (s *Server) handleScript(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	_, req, err := s.regionRequest(qv)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/x-python")
	fmt.Fprint(w, PythonScript("http://"+r.Host, qv.Get("dataset"), req))
}

// handleSlice serves 1D cross-sections ("tools for taking horizontal and
// vertical slices of the data") across the whole plane, at full
// resolution.
func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	e, req, err := s.regionRequest(qv)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	axis := qv.Get("axis")
	index, err := strconv.Atoi(qv.Get("index"))
	if err != nil {
		http.Error(w, "dashboard: bad index", http.StatusBadRequest)
		return
	}
	dims := e.Dataset().Meta.Dims
	switch axis {
	case "h": // horizontal slice: fixed row
		if index < 0 || index >= dims[1] {
			http.Error(w, "dashboard: row outside dataset", http.StatusBadRequest)
			return
		}
		req.Box = idx.Box{X0: 0, Y0: index, X1: dims[0], Y1: index + 1}
	case "v": // vertical slice: fixed column
		if index < 0 || index >= dims[0] {
			http.Error(w, "dashboard: column outside dataset", http.StatusBadRequest)
			return
		}
		req.Box = idx.Box{X0: index, Y0: 0, X1: index + 1, Y1: dims[1]}
	default:
		http.Error(w, "dashboard: axis must be h or v", http.StatusBadRequest)
		return
	}
	req.Level = query.LevelFull
	res, err := e.Read(r.Context(), req)
	if err != nil {
		readError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"axis":   axis,
		"index":  index,
		"values": res.Grid.Data,
	})
}

// handleStats serves summary statistics for ad-hoc analysis of a region.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	res, ok := s.readView(w, r, r.URL.Query())
	if !ok {
		return
	}
	st := res.Grid.ComputeStats()
	writeJSON(w, map[string]any{
		"level": res.Level, "n": st.N, "nodata": st.Nodata,
		"min": st.Min, "max": st.Max, "mean": st.Mean, "std": st.Std,
	})
}

// handlePlayback serves the automated-walkthrough plan: one render URL
// per timestep plus the frame interval from the speed control.
func (s *Server) handlePlayback(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	e, req, err := s.regionRequest(qv)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fps := 2.0
	if f := qv.Get("fps"); f != "" {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 || v > 60 {
			http.Error(w, "dashboard: fps outside (0,60]", http.StatusBadRequest)
			return
		}
		fps = v
	}
	prefix := "/api/render?dataset=" + url.QueryEscape(qv.Get("dataset")) + "&field=" + url.QueryEscape(req.Field) + "&t="
	frames := make([]string, e.Dataset().Meta.Timesteps)
	for t := range frames {
		frames[t] = prefix + strconv.Itoa(t)
	}
	writeJSON(w, map[string]any{
		"interval_ms": int(math.Round(1000 / fps)),
		"frames":      frames,
	})
}

// handleIndex serves a minimal HTML UI exposing the dashboard controls.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// internalError answers a server-side failure without echoing the
// error to the client: internal error strings name backends, paths, and
// dataset internals — reconnaissance material, not a user-actionable
// message. The real error is logged with the request's trace ID so an
// operator can join the 500 the client reported to its /debug/traces
// entry.
func (s *Server) internalError(w http.ResponseWriter, r *http.Request, err error) {
	s.log().Error("internal error",
		slog.String("trace", trace.ID(r.Context())),
		slog.String("path", r.URL.Path),
		slog.String("error", err.Error()))
	http.Error(w, "dashboard: internal error", http.StatusInternalServerError)
}

// bodyFailed records a response that failed after its status line went
// out. A streamed body cannot turn into a 500 half way, and the usual
// cause is a client that went away, so the handler just returns and the
// failure is logged once, at debug level, with the request's trace ID.
func (s *Server) bodyFailed(r *http.Request, err error) {
	s.log().Debug("response body not delivered",
		slog.String("trace", trace.ID(r.Context())),
		slog.String("path", r.URL.Path),
		slog.String("error", err.Error()))
}

// readError reports a failed region read. A cancelled request context
// means the client is gone — there is nobody to write an error to, so
// the handler just returns (the status recorder still books a 499-style
// abandonment as the default 200 with zero body). A deadline expiry maps
// to 504; everything else is treated as a bad request.
func readError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "dashboard: request deadline exceeded", http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

const indexHTML = `<!DOCTYPE html>
<html>
<head><title>NSDF Dashboard</title>
<style>
body { font-family: sans-serif; margin: 2em; }
.controls { margin-bottom: 1em; }
label { margin-right: 1em; }
img { border: 1px solid #888; image-rendering: pixelated; max-width: 90vw; }
</style>
</head>
<body>
<h1>NSDF Dashboard</h1>
<div class="controls">
  <label>Dataset <select id="dataset"></select></label>
  <label>Variable <select id="field"></select></label>
  <label>Palette <select id="palette"></select></label>
  <label>Time <input id="time" type="range" min="0" max="0" value="0"></label>
  <label>Resolution <input id="level" type="range" min="0" max="0" value="0"></label>
  <button id="play">Play</button>
</div>
<img id="view" alt="rendered region">
<script>
async function init() {
  const datasets = await (await fetch('/api/datasets')).json();
  const dsSel = document.getElementById('dataset');
  for (const d of datasets) dsSel.add(new Option(d.name));
  dsSel.onchange = () => configure(datasets.find(d => d.name === dsSel.value));
  if (datasets.length) configure(datasets[0]);
}
function configure(d) {
  const fieldSel = document.getElementById('field');
  fieldSel.innerHTML = '';
  for (const f of d.fields) fieldSel.add(new Option(f));
  const palSel = document.getElementById('palette');
  palSel.innerHTML = '';
  for (const p of d.palettes) palSel.add(new Option(p));
  const time = document.getElementById('time');
  time.max = d.timesteps - 1;
  const level = document.getElementById('level');
  level.max = d.max_level;
  level.value = d.max_level;
  for (const el of [fieldSel, palSel, time, level]) el.oninput = render;
  render();
}
function render() {
  const v = id => document.getElementById(id).value;
  document.getElementById('view').src = '/api/render?dataset=' + encodeURIComponent(v('dataset')) +
    '&field=' + encodeURIComponent(v('field')) + '&t=' + v('time') + '&level=' + v('level') +
    '&palette=' + encodeURIComponent(v('palette'));
}
document.getElementById('play').onclick = async () => {
  const v = id => document.getElementById(id).value;
  const plan = await (await fetch('/api/playback?dataset=' + encodeURIComponent(v('dataset')) +
    '&field=' + encodeURIComponent(v('field')))).json();
  let i = 0;
  const timer = setInterval(() => {
    if (i >= plan.frames.length) { clearInterval(timer); return; }
    document.getElementById('view').src = plan.frames[i++] + '&palette=' + encodeURIComponent(v('palette'));
  }, plan.interval_ms);
};
init();
</script>
</body>
</html>
`
