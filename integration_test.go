package nsdfgo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/convert"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/netcdf"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/tiff"
)

// TestFullStackOverHTTP drives the complete tutorial scenario with every
// service behind a real HTTP boundary: a private Seal-style object store,
// a catalog service, and the dashboard, exercising step 1 through step 4
// exactly as a distributed deployment would.
func TestFullStackOverHTTP(t *testing.T) {
	ctx := context.Background()

	// --- Services: private store with auth, catalog. ---
	sealBackend := storage.NewMemStore()
	sealSrv := httptest.NewServer(storage.NewServer(sealBackend, "tutorial-token"))
	defer sealSrv.Close()
	seal := storage.NewClient(sealSrv.URL, "tutorial-token")

	cat := catalog.New()
	catSrv := httptest.NewServer(catalog.NewServer(cat))
	defer catSrv.Close()

	// --- Step 1: generate terrain, write TIFFs to the remote store. ---
	scene := dem.Tennessee(128, 64, 77)
	grids := map[string]*raster.Grid{}
	for _, p := range []geotiled.Param{geotiled.Elevation, geotiled.Hillshade} {
		g, err := geotiled.ComputeTiled(scene, p, geotiled.Options{})
		if err != nil {
			t.Fatal(err)
		}
		grids[p.String()] = g
		var buf bytes.Buffer
		if err := tiff.Encode(&buf, tiff.FromGrid(g), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
			t.Fatal(err)
		}
		if err := seal.Put(ctx, "raw/"+p.String()+".tif", buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	// --- Step 2: fetch back over HTTP, convert to IDX on the same store. ---
	var inputs []convert.Input
	for name := range grids {
		data, err := seal.Get(ctx, "raw/"+name+".tif")
		if err != nil {
			t.Fatal(err)
		}
		g, err := convert.LoadRaster(name+".tif", data, convert.Options{})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, convert.Input{FieldName: name, Grid: g})
	}
	ds, err := convert.ToIDXWith(context.Background(), storage.NewIDXBackend(seal, "datasets/tn"), inputs, convert.IDXOptions{BitsPerBlock: 10})
	if err != nil {
		t.Fatal(err)
	}

	// Register the dataset's fields in the catalog over its HTTP API.
	var records []catalog.Record
	for name := range grids {
		size, err := ds.StoredBytes(context.Background(), name, 0)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, catalog.Record{
			Name: "tn_" + name + ".idx", Source: "sealstorage", Type: "idx",
			Size: size, Location: sealSrv.URL + "/datasets/tn",
			Keywords: []string{"terrain", name, "tennessee"},
		})
	}
	body, _ := json.Marshal(records)
	resp, err := http.Post(catSrv.URL+"/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("catalog ingest status %s", resp.Status)
	}

	// --- Step 3: validate through a fresh dataset handle (reopen). ---
	ds2, err := idx.Open(context.Background(), storage.NewIDXBackend(seal, "datasets/tn"))
	if err != nil {
		t.Fatal(err)
	}
	for name, orig := range grids {
		back, _, err := ds2.ReadFull(context.Background(), name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(orig, back) {
			t.Fatalf("%s: HTTP round trip not identical", name)
		}
	}

	// --- Step 4: dashboard over the store-backed dataset. ---
	dash := dashboard.NewServer()
	dash.Register("tennessee", query.New(ds2, 16<<20))
	dashSrv := httptest.NewServer(dash)
	defer dashSrv.Close()

	resp, err = http.Get(dashSrv.URL + "/api/render?dataset=tennessee&field=elevation&palette=terrain")
	if err != nil {
		t.Fatal(err)
	}
	pngBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render status %s", resp.Status)
	}
	if _, err := png.Decode(bytes.NewReader(pngBody)); err != nil {
		t.Fatalf("render not a PNG: %v", err)
	}

	// Snip -> .npy -> decode -> values match the source exactly.
	resp, err = http.Get(dashSrv.URL + "/api/data?dataset=tennessee&field=elevation&x0=16&y0=16&x1=48&y1=40")
	if err != nil {
		t.Fatal(err)
	}
	npyBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	snip, err := dashboard.DecodeNPY(npyBody)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := grids["elevation"].Crop(16, 16, 32, 24)
	if !raster.Equal(want, snip) {
		t.Fatal("snipped region differs from source data")
	}

	// Discovery: the catalog finds what the workflow published.
	resp, err = http.Get(catSrv.URL + "/search?q=terrain+tennessee")
	if err != nil {
		t.Fatal(err)
	}
	var found []catalog.Record
	json.NewDecoder(resp.Body).Decode(&found)
	resp.Body.Close()
	if len(found) != 2 {
		t.Fatalf("catalog found %d records, want 2", len(found))
	}

	// Unauthorized access to the private store must fail.
	anon := storage.NewClient(sealSrv.URL, "")
	if _, err := anon.Get(ctx, "datasets/tn/dataset.idx"); err == nil {
		t.Fatal("anonymous read of private store succeeded")
	}
}

// TestNetCDFPipelineIntegration covers the multi-format path: a NetCDF
// product converted to IDX and served by the dashboard.
func TestNetCDFPipelineIntegration(t *testing.T) {
	g := dem.Scale(dem.FBM(48, 32, 3, dem.DefaultFBM()), 0.1, 0.5)
	g.Geo = &raster.Georef{OriginX: -90, OriginY: 37, PixelW: 0.01, PixelH: 0.01}
	nc, err := netcdf.FromGrid("soil_moisture", g, "m3 m-3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := convert.LoadRaster("sm.nc", buf.Bytes(), convert.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := convert.ToIDXWith(context.Background(), idx.NewMemBackend(), []convert.Input{{FieldName: "soil_moisture", Grid: loaded}}, convert.IDXOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Meta.Geo == nil {
		t.Fatal("georeferencing lost through NetCDF -> IDX")
	}
	dash := dashboard.NewServer()
	dash.Register("moisture", query.New(ds, 1<<20))
	srv := httptest.NewServer(dash)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/stats?dataset=moisture")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]float64
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats["min"] < 0.09 || stats["max"] > 0.51 {
		t.Errorf("moisture stats out of band: %+v", stats)
	}
}

// TestWorkflowSurvivesFlakyStorage runs the step-2/3 conversion onto the
// replicated tier with one faulty node — failure injection at the
// integration level, over what ships: a 3-node shard.Router at R=2 whose
// node c fails a share p of its operations. Every key keeps a healthy
// replica, so the write quorum and read failover carry the dataset
// through bit-exact, and the router books the failovers.
func TestWorkflowSurvivesFlakyStorage(t *testing.T) {
	ctx := context.Background()
	for _, p := range []float64{0.15, 1} {
		t.Run(fmt.Sprintf("p=%v", p), func(t *testing.T) {
			faulty := storage.NewConditioned(storage.NewMemStore(), storage.NetworkProfile{FailProb: p}, 5)
			r, err := shard.NewRouter([]shard.Node{
				{Name: "a", Store: storage.NewMemStore()},
				{Name: "b", Store: storage.NewMemStore()},
				{Name: "c", Store: faulty},
			}, shard.Options{Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			r.Instrument(reg)
			scene := dem.Tennessee(96, 48, 9)
			if _, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(r, "ds"), []convert.Input{{FieldName: "elevation", Grid: scene}}, convert.IDXOptions{BitsPerBlock: 8}); err != nil {
				t.Fatal(err)
			}
			ds, err := idx.Open(ctx, storage.NewIDXBackend(r, "ds"))
			if err != nil {
				t.Fatal(err)
			}
			back, _, err := ds.ReadFull(ctx, "elevation", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !raster.Equal(scene, back) {
				t.Fatal("data corrupted through flaky storage")
			}
			if faulty.Stats().Failed == 0 {
				t.Fatal("node c injected no failure; the test exercises nothing")
			}
			if n := reg.Counter("nsdf_shard_replica_failovers_total").Value(); n == 0 {
				t.Fatal("no replica failover booked")
			}
		})
	}
}

// TestDashboardMultiDataset checks the dropdown with several datasets of
// different shapes registered at once.
func TestDashboardMultiDataset(t *testing.T) {
	dash := dashboard.NewServer()
	for i, name := range []string{"alpha", "beta", "gamma"} {
		w := 32 << i
		meta, err := idx.NewMeta([]int{w, 32}, []idx.Field{{Name: "f", Type: idx.Float32}})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := idx.Create(context.Background(), idx.NewMemBackend(), meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteGrid(context.Background(), "f", 0, dem.FBM(w, 32, uint64(i), dem.DefaultFBM())); err != nil {
			t.Fatal(err)
		}
		dash.Register(name, query.New(ds, 1<<20))
	}
	srv := httptest.NewServer(dash)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/datasets")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var infos []dashboard.DatasetInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("%d datasets", len(infos))
	}
	names := make([]string, len(infos))
	for i, d := range infos {
		names[i] = d.Name
	}
	if strings.Join(names, ",") != "alpha,beta,gamma" {
		t.Errorf("dropdown order %v", names)
	}
	for _, d := range infos {
		resp, err := http.Get(srv.URL + fmt.Sprintf("/api/render?dataset=%s", d.Name))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s render status %s", d.Name, resp.Status)
		}
	}
}
