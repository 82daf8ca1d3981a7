package catalog

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"nsdfgo/internal/telemetry"
)

func TestServerTelemetry(t *testing.T) {
	cat := New()
	if _, err := cat.Add(Record{ID: "r1", Name: "dem.tif", Source: "dataverse", Type: "tiff", Size: 42}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cat)
	reg := telemetry.NewRegistry()
	srv.EnableTelemetry(reg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	get("/healthz")
	get("/healthz")
	get("/records/r1")
	get("/search?q=dem")
	if code := get("/records/absent"); code != http.StatusNotFound {
		t.Fatalf("GET missing record = %d, want 404", code)
	}
	get("/totally/unknown")

	cases := []struct {
		route, class string
		want         int64
	}{
		{"/healthz", "2xx", 2},
		{"/records/{id}", "2xx", 1},
		{"/records/{id}", "4xx", 1},
		{"/search", "2xx", 1},
		{"other", "4xx", 1},
	}
	for _, c := range cases {
		got := reg.Counter("nsdf_http_requests_total",
			"service", "catalog", "route", c.route, "class", c.class).Value()
		if got != c.want {
			t.Errorf("requests{route=%q,class=%q} = %d, want %d", c.route, c.class, got, c.want)
		}
	}
	if snap := reg.Histogram("nsdf_http_request_seconds", "service", "catalog").Snapshot(); snap.Count != 6 {
		t.Errorf("latency observations = %d, want 6", snap.Count)
	}

	// Without telemetry the server still routes.
	plain := httptest.NewServer(NewServer(cat))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("plain server /healthz = %d", resp.StatusCode)
	}
}
