package dashboard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
)

// TestMetricsEndpointBreadth drives the dashboard the way a tutorial
// session would — browse, render, re-render — then scrapes /metrics and
// checks the acceptance bar: at least 12 distinct series spanning block
// I/O (owned by the instrumented store), cache effectiveness, and HTTP
// latency with percentiles.
func TestMetricsEndpointBreadth(t *testing.T) {
	reg := telemetry.NewRegistry()
	meta, err := idx.NewMeta([]int{64, 64}, []idx.Field{{Name: "elevation", Type: idx.Float32, Codec: "zlib"}})
	if err != nil {
		t.Fatal(err)
	}
	meta.BitsPerBlock = 8
	be := storage.NewIDXBackend(storage.NewInstrumented(storage.NewMemStore(), reg, "mem"), "")
	ds, err := idx.Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteGrid(context.Background(), "elevation", 0, dem.Scale(dem.FBM(64, 64, 3, dem.DefaultFBM()), 0, 1000)); err != nil {
		t.Fatal(err)
	}

	s := NewServer()
	s.EnableTelemetry(reg)
	s.Register("demo", query.New(ds, 1<<20))
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, path := range []string{
		"/api/datasets",
		"/api/render?dataset=demo&field=elevation", // cold read
		"/api/render?dataset=demo&field=elevation", // warm: cache hits
		"/api/missing", // 404: a second status class
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)

	series := 0
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series++
	}
	if series < 12 {
		t.Errorf("/metrics exposes %d series, acceptance bar is 12:\n%s", series, exposition)
	}

	// Spot-check each dimension the issue names.
	for _, want := range []string{
		`nsdf_storage_ops_total{backend="mem",op="get"}`,
		`nsdf_storage_bytes_total{backend="mem",direction="down"}`,
		`nsdf_cache_hits_total{cache="demo"}`,
		`nsdf_cache_misses_total{cache="demo"}`,
		`nsdf_http_requests_total{class="2xx",route="/api/render",service="dashboard"} 2`,
		`nsdf_http_requests_total{class="4xx",route="other",service="dashboard"} 1`,
		`nsdf_http_request_seconds{service="dashboard",quantile="0.95"}`,
		`nsdf_idx_read_seconds{dataset="demo",quantile="0.99"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The warm render must have produced cache hits visible in the scrape.
	if reg.SumFamily("nsdf_cache_hits_total") == 0 {
		t.Error("no cache hits recorded after a repeated render")
	}
}

// TestRegisterWhileServing registers datasets on an instrumented server
// while other goroutines list them and read every one listed. Under
// -race it checks that an engine is instrumented before a request can
// reach it, and afterwards that every dataset's series were registered.
func TestRegisterWhileServing(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer()
	s.EnableTelemetry(reg)
	meta, err := idx.NewMeta([]int{16, 16}, []idx.Field{{Name: "elevation", Type: idx.Float32, Codec: "zlib"}})
	if err != nil {
		t.Fatal(err)
	}
	const datasets = 4
	engines := make([]*query.Engine, datasets)
	for i := range engines {
		ds, err := idx.Create(context.Background(), storage.NewIDXBackend(storage.NewMemStore(), ""), meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteGrid(context.Background(), "elevation", 0, dem.FBM(16, 16, 3, dem.DefaultFBM())); err != nil {
			t.Fatal(err)
		}
		engines[i] = query.New(ds, 1<<16)
	}

	var registering, reading sync.WaitGroup
	for i, e := range engines {
		registering.Add(1)
		go func() {
			defer registering.Done()
			s.Register(fmt.Sprintf("d%d", i), e)
		}()
	}
	done := make(chan struct{})
	for range 2 {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				for _, info := range s.Datasets() {
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/stats?dataset="+info.Name, nil))
					if rec.Code != http.StatusOK {
						t.Errorf("stats %s: status %d: %s", info.Name, rec.Code, rec.Body)
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	registering.Wait()
	close(done)
	reading.Wait()

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for i := range engines {
		if want := fmt.Sprintf(`nsdf_cache_hits_total{cache="d%d"}`, i); !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
