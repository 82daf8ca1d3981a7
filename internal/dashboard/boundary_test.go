package dashboard

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
)

// newBoundaryServer serves two tiny datasets in process: a 32x32
// two-field, 3-timestep 2D one under the name the HTTP tests use, and a
// 32x16x8 3D one. Every sample encodes where it is: x + 100y + 10000z,
// plus 10^6 per timestep and 3·10^6 per field, all exact in float32.
func newBoundaryServer(tb testing.TB) *Server {
	tb.Helper()
	ctx := context.Background()
	s := NewServer()
	for _, d := range []struct {
		name   string
		dims   []int
		fields []string
		steps  int
	}{
		{"tennessee_30m", []int{32, 32}, []string{"elevation", "hillshade"}, 3},
		{"vol", []int{32, 16, 8}, []string{"density"}, 1},
	} {
		var fields []idx.Field
		for _, f := range d.fields {
			fields = append(fields, idx.Field{Name: f, Type: idx.Float32})
		}
		meta, err := idx.NewMeta(d.dims, fields)
		if err != nil {
			tb.Fatal(err)
		}
		meta.Timesteps = d.steps
		meta.BitsPerBlock = 8
		ds, err := idx.Create(ctx, storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
		if err != nil {
			tb.Fatal(err)
		}
		w, h := d.dims[0], d.dims[1]
		n := w * h
		if len(d.dims) == 3 {
			n *= d.dims[2]
		}
		for fi, f := range d.fields {
			for ts := 0; ts < d.steps; ts++ {
				data := make([]float32, n)
				for i := range data {
					data[i] = float32(i%w + 100*(i/w%h) + 10000*(i/(w*h)) + 1000000*(ts+3*fi))
				}
				if len(d.dims) == 3 {
					err = ds.WriteVolume(ctx, f, ts, data)
				} else {
					err = ds.WriteGrid(ctx, f, ts, &raster.Grid{W: w, H: h, Data: data})
				}
				if err != nil {
					tb.Fatal(err)
				}
			}
		}
		s.Register(d.name, query.New(ds, 1<<20))
	}
	return s
}

// serveGet answers one GET in process.
func serveGet(s *Server, target string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	return w
}

// scriptURL returns the URL a generated script fetches: the
// concatenation of the string literals between "URL = (" and ")".
func scriptURL(t *testing.T, script string) string {
	t.Helper()
	_, rest, _ := strings.Cut(script, "URL = (\n")
	literals, _, _ := strings.Cut(rest, "\n)")
	var u string
	for _, line := range strings.Split(literals, "\n") {
		lit, err := strconv.Unquote(strings.TrimSpace(line))
		if err != nil {
			t.Fatalf("script URL line %q is not one string literal: %v\n%s", line, err, script)
		}
		u += lit
	}
	return u
}

// TestBadViewRejectedEverywhere sends each bad view parameter to every
// endpoint that takes a view. All of them go through regionRequest, so
// each must answer 400, /api/script included, and the same endpoints
// answer 200 without the bad parameter.
func TestBadViewRejectedEverywhere(t *testing.T) {
	s := newBoundaryServer(t)
	endpoints := map[string]string{
		"/api/render":     "",
		"/api/data":       "",
		"/api/script":     "",
		"/api/slice":      "&axis=h&index=2",
		"/api/stats":      "",
		"/api/histogram":  "",
		"/api/export.tif": "",
		"/api/playback":   "",
		"/api/probe":      "&x=1&y=1", // 2D only
	}
	for _, info := range s.Datasets() {
		endpoints["/api/compare"] = "&field_b=" + info.Fields[0]
		bad := []string{
			"field=nope",
			"t=-1", "t=" + strconv.Itoa(info.Timesteps),
			"level=-5", "level=" + strconv.Itoa(info.MaxLevel+1),
			"max_samples=-1",
			"x0=10&x1=5", // an empty box
		}
		if info.Depth > 0 {
			bad = append(bad, "z=-1", "z="+strconv.Itoa(info.Depth))
		}
		for path, extra := range endpoints {
			if path == "/api/probe" && info.Depth > 0 {
				continue
			}
			view := path + "?dataset=" + info.Name + extra
			if w := serveGet(s, view); w.Code != http.StatusOK {
				t.Errorf("%s: status %d (%s), want 200", view, w.Code, w.Body)
			}
			for _, b := range bad {
				if w := serveGet(s, view+"&"+b); w.Code != http.StatusBadRequest {
					t.Errorf("%s&%s: status %d, want 400", view, b, w.Code)
				}
			}
		}
	}
}

// TestScriptFetchesTheSnippedArray: the script names the level a sample
// budget resolved to and, on 3D, the plane, so its URL fetches exactly
// the array the /api/data call with the same view returns.
func TestScriptFetchesTheSnippedArray(t *testing.T) {
	s := newBoundaryServer(t)
	for _, view := range []string{
		"dataset=tennessee_30m&max_samples=100",
		"dataset=tennessee_30m&field=hillshade&t=2&x0=3&y0=5&x1=20&y1=30&level=8",
		"dataset=vol&z=3",
		"dataset=vol&z=5&x0=4&max_samples=40",
	} {
		w := serveGet(s, "/api/script?"+view)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", view, w.Code, w.Body)
		}
		u, err := url.Parse(scriptURL(t, w.Body.String()))
		if err != nil {
			t.Fatal(err)
		}
		q := u.Query()
		if level, err := strconv.Atoi(q.Get("level")); err != nil || level < 0 || q.Has("max_samples") {
			t.Errorf("%s: script URL %s names no concrete level", view, u)
		}
		if strings.Contains(view, "z=") && q.Get("z") == "" {
			t.Errorf("%s: script URL %s drops the plane", view, u)
		}
		fromScript, direct := serveGet(s, u.RequestURI()), serveGet(s, "/api/data?"+view)
		if fromScript.Code != http.StatusOK || fromScript.Body.String() != direct.Body.String() {
			t.Errorf("%s: script URL %s answered %d with %d bytes; /api/data answered %d with %d bytes",
				view, u, fromScript.Code, fromScript.Body.Len(), direct.Code, direct.Body.Len())
		}
	}
}

// TestVolumeViewsGoThroughTheEngine: a 3D view is a query.Request plane,
// so a sample budget bounds it and a slice crosses the chosen plane.
func TestVolumeViewsGoThroughTheEngine(t *testing.T) {
	s := newBoundaryServer(t)
	w := serveGet(s, "/api/data?dataset=vol&max_samples=64")
	g, err := DecodeNPY(w.Body.Bytes())
	if err != nil {
		t.Fatalf("status %d: %v", w.Code, err)
	}
	if len(g.Data) > 64 {
		t.Errorf("max_samples=64 delivered %dx%d samples", g.W, g.H)
	}

	w = serveGet(s, "/api/slice?dataset=vol&axis=h&index=2&z=3")
	var out struct {
		Values []float32 `json:"values"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("status %d: %v: %s", w.Code, err, w.Body)
	}
	if len(out.Values) != 32 {
		t.Fatalf("row of %d values, want 32", len(out.Values))
	}
	for x, v := range out.Values {
		if want := float32(x + 100*2 + 10000*3); v != want {
			t.Fatalf("value %d of row 2 of plane 3 is %v, want %v", x, v, want)
		}
	}
}

// TestRenderRejectsNonFiniteRange: a manual colour range must be two
// finite numbers; NaN or an infinity cannot normalise a sample.
func TestRenderRejectsNonFiniteRange(t *testing.T) {
	s := newBoundaryServer(t)
	for _, rng := range []string{"min=NaN&max=NaN", "min=-Inf&max=Inf", "min=0&max=%2Binf", "min=nan&max=1"} {
		if w := serveGet(s, "/api/render?dataset=tennessee_30m&"+rng); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", rng, w.Code)
		}
	}
	if w := serveGet(s, "/api/render?dataset=tennessee_30m&min=-1e3&max=1e3"); w.Code != http.StatusOK {
		t.Errorf("finite range: status %d: %s", w.Code, w.Body)
	}
}

// fuzzEndpoints are the paths FuzzDashboardQuery drives: every endpoint
// that reads a query string. All but the legend take a view.
var fuzzEndpoints = []string{
	"/api/render", "/api/data", "/api/script", "/api/slice", "/api/stats",
	"/api/playback", "/api/export.tif", "/api/compare", "/api/probe",
	"/api/histogram", "/api/legend",
}

// FuzzDashboardQuery drives one endpoint with an arbitrary query string
// over a tiny 2D and a tiny 3D dataset. No request may panic or answer
// 5xx, and a view endpoint may answer 200 only to a request
// regionRequest accepts.
func FuzzDashboardQuery(f *testing.F) {
	s := newBoundaryServer(f)
	for _, seed := range []string{
		// The URLs of the endpoint tests.
		"/api/render?dataset=tennessee_30m&field=elevation&t=0&palette=terrain",
		"/api/render?dataset=tennessee_30m&level=6",
		"/api/render?dataset=tennessee_30m&x0=10&y0=10&x1=30&y1=20&min=0&max=1000",
		"/api/render?dataset=tennessee_30m&x0=abc",
		"/api/render?dataset=tennessee_30m&min=1&max=x",
		"/api/render?dataset=vol&z=4&level=8",
		"/api/data?dataset=tennessee_30m&field=elevation&x0=8&y0=8&x1=24&y1=16",
		"/api/data?dataset=vol&z=5&x0=2&y0=3&x1=10&y1=7",
		"/api/script?dataset=tennessee_30m&field=elevation&x0=1&y0=2&x1=3&y1=4",
		"/api/script?dataset=tennessee_30m&field=x%22%0Aimport+os%3Bos.system%28%22id%22%29%0A%23",
		"/api/slice?dataset=tennessee_30m&axis=v&index=31",
		"/api/slice?dataset=tennessee_30m&axis=h&index=x",
		"/api/stats?dataset=vol&z=7",
		"/api/playback?dataset=tennessee_30m&fps=4",
		"/api/playback?dataset=tennessee_30m&field=x%26palette%3Djet",
		"/api/export.tif?dataset=tennessee_30m&field=elevation&x0=4&y0=8&x1=36&y1=24",
		"/api/compare?dataset=tennessee_30m&field=elevation&field_b=hillshade",
		"/api/compare?dataset=tennessee_30m&field=elevation&field_b=nope",
		"/api/probe?dataset=tennessee_30m&field=elevation&x=10&y=20",
		"/api/histogram?dataset=tennessee_30m&field=elevation&bins=16",
		"/api/legend?palette=terrain&width=128",
		// What the boundary got wrong before every view went through it.
		"/api/script?dataset=tennessee_30m&level=-5&t=-1",
		"/api/script?dataset=tennessee_30m&t=99",
		"/api/script?dataset=vol&z=99",
		"/api/script?dataset=tennessee_30m&max_samples=100",
		"/api/script?dataset=vol&z=3",
		"/api/render?dataset=tennessee_30m&min=NaN&max=NaN",
		"/api/data?dataset=vol&max_samples=64",
		"/api/slice?dataset=vol&axis=h&index=2&z=3",
		// The paletted renderer's degenerate ranges, palette ends and widest legend.
		"/api/render?dataset=tennessee_30m&min=5&max=5",
		"/api/render?dataset=tennessee_30m&min=1000&max=0",
		"/api/render?dataset=tennessee_30m&palette=gray",
		"/api/render?dataset=tennessee_30m&palette=moisture",
		"/api/legend?width=4096",
	} {
		path, rawQuery, _ := strings.Cut(seed, "?")
		for i, ep := range fuzzEndpoints {
			if ep == path {
				f.Add(uint8(i), rawQuery)
			}
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, rawQuery string) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		r := httptest.NewRequest("GET", path, nil)
		r.URL.RawQuery = rawQuery
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code >= 500 {
			t.Fatalf("%s?%s: status %d: %s", path, rawQuery, w.Code, w.Body)
		}
		if w.Code == http.StatusOK && path != "/api/legend" {
			if _, _, err := s.regionRequest(r.URL.Query()); err != nil {
				t.Fatalf("%s?%s: 200, but regionRequest rejects it: %v", path, rawQuery, err)
			}
		}
	})
}
