package dashboard

import (
	"context"
	"encoding/json"
	"image/png"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/storage"
)

// newVolumeServer serves one 32x16x8 3D dataset whose value encodes its
// coordinates (x + 100y + 10000z).
func newVolumeServer(t *testing.T) *httptest.Server {
	t.Helper()
	meta, err := idx.NewMeta([]int{32, 16, 8}, []idx.Field{{Name: "density", Type: idx.Float32}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8
	ds, err := idx.Create(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float32, 32*16*8)
	for z := 0; z < 8; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 32; x++ {
				data[(z*16+y)*32+x] = float32(x + 100*y + 10000*z)
			}
		}
	}
	if err := ds.WriteVolume(context.Background(), "density", 0, data); err != nil {
		t.Fatal(err)
	}
	s := NewServer()
	s.Register("vol", query.New(ds, 1<<20))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

func TestVolumeDatasetMetadataReportsDepth(t *testing.T) {
	srv := newVolumeServer(t)
	resp, body := get(t, srv.URL+"/api/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var infos []DatasetInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if infos[0].Depth != 8 || infos[0].Width != 32 || infos[0].Height != 16 {
		t.Errorf("info %+v", infos[0])
	}
}

func TestVolumeRenderSlice(t *testing.T) {
	srv := newVolumeServer(t)
	resp, body := get(t, srv.URL+"/api/render?dataset=vol&z=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	img, err := png.Decode(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 32 || img.Bounds().Dy() != 16 {
		t.Errorf("slice image %v", img.Bounds())
	}
}

func TestVolumeDataSliceValues(t *testing.T) {
	srv := newVolumeServer(t)
	resp, body := get(t, srv.URL+"/api/data?dataset=vol&z=5&x0=2&y0=3&x1=10&y1=7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	g, err := DecodeNPY(body)
	if err != nil {
		t.Fatal(err)
	}
	if g.W != 8 || g.H != 4 {
		t.Fatalf("region %dx%d", g.W, g.H)
	}
	// Value encodes coordinates: (x=2,y=3,z=5) -> 2 + 300 + 50000.
	if g.At(0, 0) != 50302 {
		t.Errorf("value %v, want 50302", g.At(0, 0))
	}
}

func TestVolumeStatsPerSliceDiffer(t *testing.T) {
	srv := newVolumeServer(t)
	mean := func(z string) float64 {
		resp, body := get(t, srv.URL+"/api/stats?dataset=vol&z="+z)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s", resp.Status)
		}
		var out map[string]float64
		json.Unmarshal(body, &out)
		return out["mean"]
	}
	if m0, m7 := mean("0"), mean("7"); m7-m0 != 70000 {
		t.Errorf("slice means %v and %v; want exactly 70000 apart", m0, m7)
	}
}

func TestVolumeZValidation(t *testing.T) {
	srv := newVolumeServer(t)
	for _, bad := range []string{"z=-1", "z=8", "z=x"} {
		resp, _ := get(t, srv.URL+"/api/render?dataset=vol&"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s", bad, resp.Status)
		}
	}
	// Default z=0 works.
	resp, _ := get(t, srv.URL+"/api/render?dataset=vol")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("default z status %s", resp.Status)
	}
}

func TestVolumeCoarseLevelSlice(t *testing.T) {
	srv := newVolumeServer(t)
	resp, body := get(t, srv.URL+"/api/render?dataset=vol&z=4&level=8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	img, err := png.Decode(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() >= 32 {
		t.Errorf("coarse slice %v; expected subsampled", img.Bounds())
	}
}

func TestVolumeExportTIFF(t *testing.T) {
	srv := newVolumeServer(t)
	resp, _ := get(t, srv.URL+"/api/export.tif?dataset=vol&z=2")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("3D TIFF export status %s", resp.Status)
	}
}

func Test2DDatasetsIgnoreZ(t *testing.T) {
	_, srv := newTestServer(t)
	resp, _ := get(t, srv.URL+"/api/render?dataset=tennessee_30m&z=999")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("2D render with z param status %s", resp.Status)
	}
}
