package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/serverkit"
	"nsdfgo/internal/telemetry/trace"
)

// TestFlagsGolden compares the command line run declares — name, type
// and default of every flag — with testdata/flags.golden, which was
// recorded from the binary before the shared flags moved into
// internal/serverkit. run is handed -h, so it returns from Parse with
// every flag declared and nothing started.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("nsdf-catalog", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := run(fs, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		typ := strings.TrimSuffix(strings.TrimPrefix(fmt.Sprintf("%T", f.Value), "*flag."), "Value")
		fmt.Fprintf(&got, "%s %s %q\n", f.Name, typ, f.DefValue)
	})
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag set differs from testdata/flags.golden\n got:\n%swant:\n%s", got.String(), want)
	}
}

// TestSearchIsTraced serves a catalog the way -serve does and checks a
// /search response carries its trace ID and that the trace is then
// listed at /debug/traces: catalog requests pass through the kit's
// middleware like every other service's.
func TestSearchIsTraced(t *testing.T) {
	k, err := serverkit.Start(serverkit.Options{Service: "catalog", NodeName: "catalog"})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	if _, err := cat.Add(catalog.Record{Name: "dem.tif", Source: "dataverse", Type: "tiff"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(k.CatalogHandler(cat))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/search?q=dem")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(trace.TraceIDHeader)
	if resp.StatusCode != http.StatusOK || !trace.ValidID(id) {
		t.Fatalf("/search = %d with trace ID %q, want 200 with a valid ID", resp.StatusCode, id)
	}
	resp, err = http.Get(srv.URL + "/debug/traces?trace=" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "http /search") {
		t.Errorf("/debug/traces?trace=%s = %d, want the /search trace:\n%s", id, resp.StatusCode, body)
	}
}
