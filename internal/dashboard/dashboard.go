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
	"image/png"
	"log/slog"
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
// labelled with the dataset name).
func (s *Server) EnableTelemetry(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.tel = telemetry.NewHTTPMetrics(reg, "dashboard")
	for name, e := range s.engines {
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
// entry). Registering a duplicate name replaces the entry.
func (s *Server) Register(name string, engine *query.Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engines[name] = engine
	if s.reg != nil {
		engine.Instrument(s.reg, name)
	}
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
			Palettes:  colormap.Names(),
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

// route dispatches to the endpoint handlers, reporting whether the path
// named a known route (used to bound telemetry label cardinality).
func (s *Server) route(w http.ResponseWriter, r *http.Request) bool {
	switch r.URL.Path {
	case "/healthz":
		telemetry.WriteHealth(w, "dashboard")
	case "/api/datasets":
		writeJSON(w, s.Datasets())
	case "/api/render":
		s.handleRender(w, r)
	case "/api/data":
		s.handleData(w, r)
	case "/api/script":
		s.handleScript(w, r)
	case "/api/slice":
		s.handleSlice(w, r)
	case "/api/stats":
		s.handleStats(w, r)
	case "/api/playback":
		s.handlePlayback(w, r)
	case "/":
		s.handleIndex(w, r)
	default:
		if !s.extraRoutes(w, r) {
			http.NotFound(w, r)
			return false
		}
	}
	return true
}

// regionRequest parses the shared dataset/field/time/box/level params.
func (s *Server) regionRequest(r *http.Request) (*query.Engine, query.Request, error) {
	qv := r.URL.Query()
	e, err := s.engine(qv.Get("dataset"))
	if err != nil {
		return nil, query.Request{}, err
	}
	meta := e.Dataset().Meta
	req := query.Request{Field: qv.Get("field"), Level: query.LevelFull}
	if req.Field == "" && len(meta.Fields) > 0 {
		req.Field = meta.Fields[0].Name
	}
	geti := func(name string, def int) (int, error) {
		v := qv.Get(name)
		if v == "" {
			return def, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("dashboard: bad %s=%q", name, v)
		}
		return n, nil
	}
	if req.Time, err = geti("t", 0); err != nil {
		return nil, req, err
	}
	box := idx.Box{X1: meta.Dims[0], Y1: meta.Dims[1]}
	if box.X0, err = geti("x0", 0); err != nil {
		return nil, req, err
	}
	if box.Y0, err = geti("y0", 0); err != nil {
		return nil, req, err
	}
	if box.X1, err = geti("x1", meta.Dims[0]); err != nil {
		return nil, req, err
	}
	if box.Y1, err = geti("y1", meta.Dims[1]); err != nil {
		return nil, req, err
	}
	req.Box = box
	level, err := geti("level", meta.MaxLevel())
	if err != nil {
		return nil, req, err
	}
	req.Level = level
	if req.MaxSamples, err = geti("max_samples", 0); err != nil {
		return nil, req, err
	}
	if req.MaxSamples > 0 {
		req.Level = query.LevelAuto
	}
	return e, req, nil
}

// handleRender serves a PNG of the requested region ("the resolution
// sliders enable users to adjust the granularity of the data").
func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	e, req, err := s.regionRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
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
	grid, res, err := s.readRegion(e, req, r)
	if err != nil {
		readError(w, err)
		return
	}
	// Manual colormap range, or dynamic from the delivered data.
	rng := colormap.DynamicRange(grid.Data)
	if minS, maxS := qv.Get("min"), qv.Get("max"); minS != "" && maxS != "" {
		lo, err1 := strconv.ParseFloat(minS, 64)
		hi, err2 := strconv.ParseFloat(maxS, 64)
		if err1 != nil || err2 != nil {
			http.Error(w, "dashboard: bad min/max", http.StatusBadRequest)
			return
		}
		rng = colormap.Range{Min: lo, Max: hi}
	}
	img := RenderImage(grid, palette, rng)
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

// RenderImage maps a grid through a palette into an RGBA image. NaN
// samples render transparent.
func RenderImage(g *raster.Grid, palette colormap.Map, rng colormap.Range) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, g.W, g.H))
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			img.SetRGBA(x, y, palette.At(rng.Normalize(float64(g.At(x, y)))))
		}
	}
	return img
}

// handleData serves the snipping tool's NumPy array download.
func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
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
	e, req, err := s.regionRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := e.Dataset().Meta.Field(req.Field); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	qv := r.URL.Query()
	base := "http://" + r.Host
	script := PythonScript(base, qv.Get("dataset"), req.Field, req.Time,
		req.Box.X0, req.Box.Y0, req.Box.X1, req.Box.Y1, req.Level)
	w.Header().Set("Content-Type", "text/x-python")
	fmt.Fprint(w, script)
}

// handleSlice serves 1D cross-sections ("tools for taking horizontal and
// vertical slices of the data").
func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	e, req, err := s.regionRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	qv := r.URL.Query()
	axis := qv.Get("axis")
	indexS := qv.Get("index")
	index, err := strconv.Atoi(indexS)
	if err != nil {
		http.Error(w, "dashboard: bad index", http.StatusBadRequest)
		return
	}
	meta := e.Dataset().Meta
	switch axis {
	case "h": // horizontal slice: fixed row
		if index < 0 || index >= meta.Dims[1] {
			http.Error(w, "dashboard: row outside dataset", http.StatusBadRequest)
			return
		}
		req.Box = idx.Box{X0: 0, Y0: index, X1: meta.Dims[0], Y1: index + 1}
	case "v": // vertical slice: fixed column
		if index < 0 || index >= meta.Dims[0] {
			http.Error(w, "dashboard: column outside dataset", http.StatusBadRequest)
			return
		}
		req.Box = idx.Box{X0: index, Y0: 0, X1: index + 1, Y1: meta.Dims[1]}
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
	e, req, err := s.regionRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, res, err := s.readRegion(e, req, r)
	if err != nil {
		readError(w, err)
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
	name := qv.Get("dataset")
	e, err := s.engine(name)
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
	meta := e.Dataset().Meta
	field := qv.Get("field")
	if field == "" {
		field = meta.Fields[0].Name
	}
	if _, err := meta.Field(field); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	prefix := "/api/render?dataset=" + url.QueryEscape(name) + "&field=" + url.QueryEscape(field) + "&t="
	frames := make([]string, meta.Timesteps)
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
