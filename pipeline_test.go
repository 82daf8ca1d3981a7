package nsdfgo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nsdfgo/internal/convert"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/netcdf"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
)

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
	ds, err := convert.ToIDXWith(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), []convert.Input{{FieldName: "soil_moisture", Grid: loaded}}, convert.IDXOptions{})
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
		ds, err := idx.Create(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
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
