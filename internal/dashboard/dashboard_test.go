package dashboard

import (
	"context"
	"encoding/json"
	"image/png"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nsdfgo/internal/colormap"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
)

// newTestServer builds a dashboard over one 64x64 two-field, 3-timestep
// dataset.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	meta, err := idx.NewMeta([]int{64, 64}, []idx.Field{
		{Name: "elevation", Type: idx.Float32, Codec: "zlib"},
		{Name: "hillshade", Type: idx.Float32, Codec: "zlib"},
	})
	if err != nil {
		t.Fatal(err)
	}
	meta.Timesteps = 3
	meta.BitsPerBlock = 8
	ds, err := idx.Create(context.Background(), idx.NewMemBackend(), meta)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range []string{"elevation", "hillshade"} {
		for ts := 0; ts < 3; ts++ {
			g := dem.Scale(dem.FBM(64, 64, uint64(100*fi+ts+1), dem.DefaultFBM()), 0, 1000)
			if err := ds.WriteGrid(context.Background(), f, ts, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := NewServer()
	s.Register("tennessee_30m", query.New(ds, 1<<20))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestDatasetsEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/api/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var infos []DatasetInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("%d datasets", len(infos))
	}
	d := infos[0]
	if d.Name != "tennessee_30m" || d.Width != 64 || d.Timesteps != 3 {
		t.Errorf("info %+v", d)
	}
	if len(d.Fields) != 2 || len(d.Palettes) == 0 {
		t.Errorf("fields %v palettes %v", d.Fields, d.Palettes)
	}
}

func TestRenderReturnsPNG(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/api/render?dataset=tennessee_30m&field=elevation&t=0&palette=terrain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	img, err := png.Decode(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 64 || img.Bounds().Dy() != 64 {
		t.Errorf("image %v", img.Bounds())
	}
	if resp.Header.Get("X-NSDF-Level") == "" {
		t.Error("no level header")
	}
}

func TestRenderCoarseLevelShrinksImage(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/api/render?dataset=tennessee_30m&level=6")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	img, err := png.Decode(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() >= 64 {
		t.Errorf("coarse render is %v; expected subsampled", img.Bounds())
	}
}

func TestRenderSubregionAndManualRange(t *testing.T) {
	_, srv := newTestServer(t)
	resp, _ := get(t, srv.URL+"/api/render?dataset=tennessee_30m&x0=10&y0=10&x1=30&y1=20&min=0&max=1000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
}

func TestRenderValidation(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []string{
		"/api/render?dataset=nope",
		"/api/render?dataset=tennessee_30m&palette=nope",
		"/api/render?dataset=tennessee_30m&t=99",
		"/api/render?dataset=tennessee_30m&level=99",
		"/api/render?dataset=tennessee_30m&x0=abc",
		"/api/render?dataset=tennessee_30m&min=1&max=x",
	}
	for _, c := range cases {
		resp, _ := get(t, srv.URL+c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", c, resp.Status)
		}
	}
}

func TestDataEndpointServesNPY(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/api/data?dataset=tennessee_30m&field=elevation&x0=8&y0=8&x1=24&y1=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	g, err := DecodeNPY(body)
	if err != nil {
		t.Fatal(err)
	}
	if g.W != 16 || g.H != 8 {
		t.Errorf("region %dx%d, want 16x8", g.W, g.H)
	}
	// The body is streamed, with its length declared up front.
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a body of %d bytes", resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

func TestScriptEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/api/script?dataset=tennessee_30m&field=elevation&x0=1&y0=2&x1=3&y1=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	s := string(body)
	for _, want := range []string{"import numpy", "x0=1", "y1=4", "/api/data"} {
		if !strings.Contains(s, want) {
			t.Errorf("script missing %q:\n%s", want, s)
		}
	}
}

func TestSliceEndpoints(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/api/slice?dataset=tennessee_30m&axis=h&index=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	var out struct {
		Axis   string    `json:"axis"`
		Values []float32 `json:"values"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Axis != "h" || len(out.Values) != 64 {
		t.Errorf("h slice %s with %d values", out.Axis, len(out.Values))
	}
	resp, body = get(t, srv.URL+"/api/slice?dataset=tennessee_30m&axis=v&index=63")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v slice status %s", resp.Status)
	}
	json.Unmarshal(body, &out)
	if len(out.Values) != 64 {
		t.Errorf("v slice %d values", len(out.Values))
	}
	// Validation.
	for _, bad := range []string{"axis=z&index=0", "axis=h&index=64", "axis=v&index=-1", "axis=h&index=x"} {
		resp, _ := get(t, srv.URL+"/api/slice?dataset=tennessee_30m&"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s", bad, resp.Status)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/api/stats?dataset=tennessee_30m&x0=0&y0=0&x1=32&y1=32")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var out map[string]float64
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["n"] != 32*32 {
		t.Errorf("n = %v", out["n"])
	}
	if out["min"] > out["mean"] || out["mean"] > out["max"] {
		t.Errorf("stat ordering: %+v", out)
	}
}

func TestPlaybackEndpoint(t *testing.T) {
	s, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/api/playback?dataset=tennessee_30m&fps=4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var out struct {
		IntervalMs int      `json:"interval_ms"`
		Frames     []string `json:"frames"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.IntervalMs != 250 {
		t.Errorf("interval %d", out.IntervalMs)
	}
	if len(out.Frames) != 3 {
		t.Errorf("%d frames", len(out.Frames))
	}
	// Frames must be fetchable.
	resp, _ = get(t, srv.URL+out.Frames[2])
	if resp.StatusCode != http.StatusOK {
		t.Errorf("frame fetch status %s", resp.Status)
	}
	// Speed control validation.
	resp, _ = get(t, srv.URL+"/api/playback?dataset=tennessee_30m&fps=0")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fps=0 status %s", resp.Status)
	}
	// A field the dataset does not have is refused, so a crafted one
	// (field=x&palette=jet) cannot smuggle parameters into the frame URLs.
	for _, field := range []string{"x%26palette%3Djet", "slope"} {
		resp, body = get(t, srv.URL+"/api/playback?dataset=tennessee_30m&field="+field)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("field=%s: status %s, body %s", field, resp.Status, body)
		}
	}
	// A registered name that needs escaping comes back in frame URLs that
	// parse to exactly that name and field, and fetch the frame.
	const name = "soil moisture & temp=1"
	s.Register(name, s.engines["tennessee_30m"])
	resp, body = get(t, srv.URL+"/api/playback?field=hillshade&dataset="+url.QueryEscape(name))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, frame := range out.Frames {
		u, err := url.Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		want := url.Values{"dataset": {name}, "field": {"hillshade"}, "t": {strconv.Itoa(i)}}
		if got := u.Query(); !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d carries %v, want %v", i, got, want)
		}
	}
	if resp, _ = get(t, srv.URL+out.Frames[1]); resp.StatusCode != http.StatusOK {
		t.Errorf("escaped frame fetch status %s", resp.Status)
	}
}

func TestIndexServesUI(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	s := string(body)
	for _, want := range []string{"NSDF Dashboard", "dataset", "palette", "Resolution", "Play"} {
		if !strings.Contains(s, want) {
			t.Errorf("UI missing %q", want)
		}
	}
}

func TestUnknownPath404(t *testing.T) {
	_, srv := newTestServer(t)
	resp, _ := get(t, srv.URL+"/api/unknown")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %s", resp.Status)
	}
}

func TestNPYRoundTrip(t *testing.T) {
	g := raster.New(7, 3)
	for i := range g.Data {
		g.Data[i] = float32(i) * 1.25
	}
	g.Data[5] = float32(math.NaN())
	payload, err := EncodeNPY(g)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload[:6]) != "\x93NUMPY" {
		t.Error("bad magic")
	}
	// Header block must be 64-byte aligned.
	if (10+int(payload[8])+int(payload[9])<<8)%64 != 0 {
		t.Error("npy header not 64-byte aligned")
	}
	back, err := DecodeNPY(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, back) {
		t.Error("npy round trip mismatch")
	}
}

func TestNPYValidation(t *testing.T) {
	if _, err := EncodeNPY(&raster.Grid{W: 2, H: 2, Data: make([]float32, 3)}); err == nil {
		t.Error("malformed grid accepted")
	}
	if _, err := DecodeNPY([]byte("junk")); err == nil {
		t.Error("junk decoded")
	}
	g := raster.New(2, 2)
	payload, _ := EncodeNPY(g)
	payload[6] = 2 // version
	if _, err := DecodeNPY(payload); err == nil {
		t.Error("future version accepted")
	}
}

func TestRenderImageNaNTransparent(t *testing.T) {
	g := raster.New(2, 1)
	g.Data[0] = 0.5
	g.Data[1] = float32(math.NaN())
	pal, _ := colormap.Lookup("viridis")
	img := RenderImage(g, pal, colormap.Range{Min: 0, Max: 1})
	if _, _, _, a := img.At(1, 0).RGBA(); a != 0 {
		t.Error("NaN pixel not transparent")
	}
	if _, _, _, a := img.At(0, 0).RGBA(); a == 0 {
		t.Error("finite pixel transparent")
	}
}

func BenchmarkRenderTile(b *testing.B) {
	meta, _ := idx.NewMeta([]int{256, 256}, []idx.Field{{Name: "elevation", Type: idx.Float32, Codec: "zlib"}})
	meta.BitsPerBlock = 12
	ds, _ := idx.Create(context.Background(), idx.NewMemBackend(), meta)
	g := dem.Scale(dem.FBM(256, 256, 1, dem.DefaultFBM()), 0, 1000)
	if err := ds.WriteGrid(context.Background(), "elevation", 0, g); err != nil {
		b.Fatal(err)
	}
	s := NewServer()
	s.Register("bench", query.New(ds, 1<<22))
	srv := httptest.NewServer(s)
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(srv.URL + "/api/render?dataset=bench&x0=64&y0=64&x1=192&y1=192")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %s", resp.Status)
		}
	}
}
