package nsdfgo_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/cache"
	"nsdfgo/internal/catalog"
	"nsdfgo/internal/convert"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/serverkit"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry/trace"
	"nsdfgo/internal/tiff"
)

// fabricToken is the fleet's shared bearer token: the stores' -token
// and the dashboard's -peer-token.
const fabricToken = "tutorial-token"

// service is one served process: its kit, its base URL, and stop, which
// cancels its Serve ctx and waits for Serve to return.
type service struct {
	kit  *serverkit.Kit
	url  string
	stop func()
}

// listen opens a loopback listener on a free port.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() }) // Serve closes it too; this covers a failed boot
	return ln
}

// boot brings a process up the way its binary does — serverkit.Start,
// the service's assembly, Serve on ln — until stop or the end of the
// test.
func boot(t *testing.T, o serverkit.Options, ln net.Listener, assemble func(*serverkit.Kit) (http.Handler, error)) *service {
	t.Helper()
	k, err := serverkit.Start(o)
	if err != nil {
		t.Fatal(err)
	}
	h, err := assemble(k)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- k.Serve(ctx, ln, h) }()
	s := &service{kit: k, url: "http://" + ln.Addr().String()}
	s.stop = sync.OnceFunc(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("%s: Serve = %v", o.NodeName, err)
		}
	})
	t.Cleanup(s.stop)
	return s
}

// fabric is the composition the binaries ship, assembled by serverkit
// alone: three nsdf-store nodes, each naming the other two in -peers and
// sharing -token, and — once data is in — one nsdf-dashboard over the
// same tier.
type fabric struct {
	names, urls []string
	stores      []*service
}

// startFabric starts the three stores. gate, when not nil, wraps store
// i's handler before it is served.
func startFabric(t *testing.T, gate func(i int, h http.Handler) http.Handler) *fabric {
	t.Helper()
	f := &fabric{names: []string{"store-a", "store-b", "store-c"}}
	var lns []net.Listener
	for range f.names {
		lns = append(lns, listen(t))
		f.urls = append(f.urls, "http://"+lns[len(lns)-1].Addr().String())
	}
	for i, ln := range lns {
		o := serverkit.Options{Service: "store", NodeName: f.names[i],
			Peers: f.peers(i), PeerToken: fabricToken, Shard: shard.Options{Replicas: 2}}
		f.stores = append(f.stores, boot(t, o, ln, func(k *serverkit.Kit) (http.Handler, error) {
			h, err := k.StoreHandler(t.TempDir())
			if err != nil || gate == nil {
				return h, err
			}
			return gate(i, h), nil
		}))
	}
	return f
}

// peers is the -peers list of every store but skip.
func (f *fabric) peers(skip int) string {
	var peers []string
	for i, url := range f.urls {
		if i != skip {
			peers = append(peers, f.names[i]+"="+url)
		}
	}
	return strings.Join(peers, ",")
}

// replicas names the stores holding key's R = 2 replicas, primary
// first, as every router in the fabric places them.
func (f *fabric) replicas(key string) []string {
	ring := shard.NewRing(0)
	for _, name := range f.names {
		ring.Add(name)
	}
	return ring.Replicas(key, 2)
}

// startDashboard serves one nsdf-dashboard over the fabric's tier with
// each -data spec registered, an on-disk cache tier, the admission
// limiter (so its pressure reaches the fetch pool) and hedged reads.
func (f *fabric) startDashboard(t *testing.T, data ...string) *service {
	t.Helper()
	o := serverkit.Options{Service: "dashboard", NodeName: "dashboard",
		Peers: f.peers(-1), PeerToken: fabricToken,
		Shard:     shard.Options{Replicas: 2, HedgeAfter: 15 * time.Millisecond},
		Admission: admission.Options{MaxConcurrent: 8, MaxQueue: 16},
		CacheMB:   16, Cache: cache.Options{DiskDir: t.TempDir(), DiskBytes: 16 << 20}}
	return boot(t, o, listen(t), func(k *serverkit.Kit) (http.Handler, error) {
		_, h, err := k.DashboardHandler(context.Background(), data, 500*time.Millisecond)
		return h, err
	})
}

// convertElevation converts the 128×64 tutorial scene's elevation into
// the fabric under prefix, through store 0's public plane.
func (f *fabric) convertElevation(t *testing.T, prefix string) *idx.Dataset {
	t.Helper()
	g, err := geotiled.ComputeTiled(dem.Tennessee(128, 64, 77), geotiled.Elevation, geotiled.Options{})
	if err != nil {
		t.Fatal(err)
	}
	be := storage.NewIDXBackend(storage.NewClient(f.urls[0], fabricToken), prefix)
	ds, err := convert.ToIDXWith(context.Background(), be, []convert.Input{{FieldName: "elevation", Grid: g}}, convert.IDXOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// fetch GETs url — carrying traceID as X-NSDF-Trace-Id when it is not
// empty, which the answer must echo — fails the test unless the answer
// is 200, and returns the body.
func fetch(t *testing.T, url, traceID string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "" {
		req.Header.Set(trace.TraceIDHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s: %s", url, resp.Status, body)
	}
	if got := resp.Header.Get(trace.TraceIDHeader); traceID != "" && got != traceID {
		t.Fatalf("GET %s answered trace %q, want the client-supplied %q", url, got, traceID)
	}
	return body
}

// decode unmarshals a JSON body into v, failing the test on error.
func decode(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %T: %v\n%s", v, err, body)
	}
}

// wantNPY checks an /api/data answer is g bit-exact.
func wantNPY(t *testing.T, body []byte, g *raster.Grid) {
	t.Helper()
	got, err := dashboard.DecodeNPY(body)
	if err != nil {
		t.Fatal(err)
	}
	if !raster.Equal(g, got) {
		t.Fatal("/api/data differs from the source grid")
	}
}

// scrape fetches /metrics and returns a map of "name{labels}" -> value.
func scrape(t *testing.T, base string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(string(fetch(t, base+"/metrics", "")), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// pollFederated fetches the federated trace until at least n nodes
// contributed (a store publishes its part after answering) or the
// deadline passes.
func pollFederated(t *testing.T, baseURL, traceID string, n int) *dashboard.FederatedTrace {
	t.Helper()
	var last string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		resp, err := http.Get(baseURL + "/debug/traces?federate=1&format=json&trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		last = fmt.Sprintf("status %s: %s", resp.Status, body)
		if resp.StatusCode == http.StatusOK {
			var fed dashboard.FederatedTrace
			if decode(t, body, &fed); len(fed.Nodes) >= n {
				return &fed
			}
		}
	}
	t.Fatalf("federated trace never assembled %d nodes; last: %s", n, last)
	return nil
}

// TestShippedFabric walks the tutorial through the fabric the binaries
// ship, every service assembled by serverkit behind a real HTTP
// boundary: three private Seal-style stores that name each other as
// peers and share a bearer token, the catalog service, and a dashboard
// over the stores' tier. Steps 1 to 4 run as a distributed deployment
// would; the dashboard's four views are checked against the source
// grids and one request's trace is assembled across the processes.
// Then a store stops: a field the dashboard has not read still reads
// back bit-exact at R = 2, and the dashboard books the failover.
func TestShippedFabric(t *testing.T) {
	ctx := context.Background()
	f := startFabric(t, nil)
	seal := storage.NewClient(f.urls[0], fabricToken)
	catSrv := boot(t, serverkit.Options{Service: "catalog", NodeName: "catalog"}, listen(t),
		func(k *serverkit.Kit) (http.Handler, error) { return k.CatalogHandler(catalog.New()), nil })

	// --- Steps 1 and 2: terrain as TIFFs to the private store, fetched
	// back over HTTP and converted to IDX on the same store. ---
	scene := dem.Tennessee(128, 64, 77)
	grids := map[string]*raster.Grid{}
	var inputs []convert.Input
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
		key := "raw/" + p.String() + ".tif"
		if err := seal.Put(ctx, key, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		data, err := seal.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		back, err := convert.LoadRaster(key, data, convert.Options{})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, convert.Input{FieldName: p.String(), Grid: back})
	}
	ds, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(seal, "datasets/tn"), inputs, convert.IDXOptions{BitsPerBlock: 10})
	if err != nil {
		t.Fatal(err)
	}

	// Register the dataset's fields in the catalog over its HTTP API.
	var records []catalog.Record
	for name := range grids {
		size, err := ds.StoredBytes(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, catalog.Record{
			Name: "tn_" + name + ".idx", Source: "sealstorage", Type: "idx",
			Size: size, Location: f.urls[0] + "/datasets/tn",
			Keywords: []string{"terrain", name, "tennessee"},
		})
	}
	body, _ := json.Marshal(records)
	resp, err := http.Post(catSrv.url+"/records", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("catalog ingest status %s", resp.Status)
	}

	// --- Step 3: validate through a fresh dataset handle (reopen). ---
	ds2, err := idx.Open(ctx, storage.NewIDXBackend(seal, "datasets/tn"))
	if err != nil {
		t.Fatal(err)
	}
	for name, orig := range grids {
		back, _, err := ds2.ReadFull(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !raster.Equal(orig, back) {
			t.Fatalf("%s: HTTP round trip not identical", name)
		}
	}

	// --- Step 4: the dashboard's views over the store-backed dataset. ---
	dash := f.startDashboard(t, "tennessee=datasets/tn")
	var infos []dashboard.DatasetInfo
	decode(t, fetch(t, dash.url+"/api/datasets", ""), &infos)
	if len(infos) != 1 || infos[0].Name != "tennessee" || infos[0].Width != 128 || len(infos[0].Fields) != 2 {
		t.Errorf("/api/datasets = %+v, want the 128-wide tennessee with two fields", infos)
	}
	// Snip -> .npy -> decode -> values match the source exactly.
	view := dash.url + "/api/%s?dataset=tennessee&field=elevation"
	traceID := "00112233445566778899aabbccddeeff"
	snip, _ := grids["elevation"].Crop(16, 16, 32, 24)
	wantNPY(t, fetch(t, fmt.Sprintf(view, "data")+"&x0=16&y0=16&x1=48&y1=40", traceID), snip)
	if _, err := png.Decode(bytes.NewReader(fetch(t, fmt.Sprintf(view, "render")+"&palette=terrain", ""))); err != nil {
		t.Errorf("render not a PNG: %v", err)
	}
	var stats map[string]float64
	decode(t, fetch(t, fmt.Sprintf(view, "stats"), ""), &stats)
	if st := grids["elevation"].ComputeStats(); stats["min"] != st.Min || stats["max"] != st.Max {
		t.Errorf("/api/stats min, max = %v, %v; want the grid's %v, %v", stats["min"], stats["max"], st.Min, st.Max)
	}
	if fed := pollFederated(t, dash.url, traceID, 2); fed.Trace.TraceID != traceID || len(fed.Failed) != 0 {
		t.Errorf("federated trace %s with failed peers %v, want %s from live peers", fed.Trace.TraceID, fed.Failed, traceID)
	}

	// Discovery: the catalog finds what the workflow published.
	var found []catalog.Record
	decode(t, fetch(t, catSrv.url+"/search?q=terrain+tennessee", ""), &found)
	if len(found) != 2 {
		t.Fatalf("catalog found %d records, want 2", len(found))
	}

	// Unauthorized access to the private store must fail.
	anon := storage.NewClient(f.urls[0], "")
	if _, err := anon.Get(ctx, "datasets/tn/dataset.idx"); err == nil {
		t.Fatal("anonymous read of private store succeeded")
	}

	// Stop the primary of hillshade's first block.
	primary := f.replicas("datasets/tn/" + ds.BlockKey("hillshade", 0, 0))[0]
	f.stores[slices.Index(f.names, primary)].stop()
	wantNPY(t, fetch(t, dash.url+"/api/data?dataset=tennessee&field=hillshade", ""), grids["hillshade"])
	if n := scrape(t, dash.url)["nsdf_shard_replica_failovers_total"]; n == "" || n == "0" {
		t.Errorf("nsdf_shard_replica_failovers_total = %q after %s stopped, want > 0", n, primary)
	}
}
