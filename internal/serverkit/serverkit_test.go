package serverkit

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/cache"
	"nsdfgo/internal/convert"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/shard"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry/flight"
	"nsdfgo/internal/telemetry/trace"
)

// TestFlagsBindIntoOptions parses every shared flag with a value of its
// own and checks each landed in its field — the goldens under cmd/ pin
// names, types and defaults, not which field a flag feeds.
func TestFlagsBindIntoOptions(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var o Options
	o.ProcessFlags(fs)
	o.ServingFlags(fs)
	err := fs.Parse(strings.Fields(`-log-format json -pprof-addr :1 -node-name n -trace-buffer 2 -flight-buffer 3
		-slow-request 4s -request-timeout 5s -max-inflight 6 -max-queue 7 -queue-timeout 8s -tenant-rps 9
		-tenant-burst 10 -retry-after 11s -peers a=http://h -replicas 12 -hedge-after 13s`))
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		NodeName: "n", LogFormat: "json", PprofAddr: ":1", TraceBuffer: 2, FlightBuffer: 3,
		SlowRequest: 4 * time.Second, RequestTimeout: 5 * time.Second,
		Admission: admission.Options{MaxConcurrent: 6, MaxQueue: 7, QueueTimeout: 8 * time.Second,
			TenantRate: 9, TenantBurst: 10, RetryAfter: 11 * time.Second},
		Peers: "a=http://h", Shard: shard.Options{Replicas: 12, HedgeAfter: 13 * time.Second},
	}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("parsed options\n got %+v\nwant %+v", o, want)
	}
}

// get fetches url and returns the response with its body read.
func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestHandlerOrder pins tracing → admission → request timeout → h with
// the limiter's one slot held by a request parked in h: the next
// request is shed by admission yet traced, never reaches h, and the
// operator and peer planes still answer.
func TestHandlerOrder(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		k, err := Start(Options{Service: "test", NodeName: "n1", RequestTimeout: timeout,
			Admission: admission.Options{MaxConcurrent: 1}})
		if err != nil {
			t.Fatal(err)
		}
		var reached, hadDeadline atomic.Int32
		entered, release := make(chan struct{}), make(chan struct{})
		ok := func(w http.ResponseWriter, r *http.Request) {}
		mux := k.DebugMux()
		mux.HandleFunc("/healthz", ok)
		mux.HandleFunc(internalPlane+"/", ok)
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			reached.Add(1)
			if _, has := r.Context().Deadline(); has {
				hadDeadline.Add(1)
			}
			close(entered)
			<-release
		})
		srv := httptest.NewServer(k.Handler(mux))

		parked := make(chan int)
		go func() {
			resp, err := http.Get(srv.URL + "/data")
			if err != nil {
				t.Error(err)
				parked <- 0
				return
			}
			resp.Body.Close()
			parked <- resp.StatusCode
		}()
		<-entered

		resp, _ := get(t, srv.URL+"/data")
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("second request = %d, Retry-After %q; want 429 with a hint",
				resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		id := resp.Header.Get(trace.TraceIDHeader)
		if !trace.ValidID(id) || k.Traces.Find(id) == nil {
			t.Errorf("shed request's trace %q is not in the collector: tracing must sit outside admission", id)
		}
		if n := reached.Load(); n != 1 {
			t.Errorf("inner handler reached %d times, want 1: a shed request must stop at admission", n)
		}
		if got, want := hadDeadline.Load() == 1, timeout > 0; got != want {
			t.Errorf("RequestTimeout %v: inner context has a deadline = %v, want %v", timeout, got, want)
		}
		for _, path := range []string{"/metrics", "/healthz", "/debug/traces", "/debug/flightrecorder", internalPlane + "/obj/x"} {
			if resp, _ := get(t, srv.URL+path); resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s with the limiter full = %d, want 200", path, resp.StatusCode)
			}
		}
		if _, body := get(t, srv.URL+"/debug/flightrecorder"); !strings.Contains(body, "shed") {
			t.Errorf("flight recorder lacks the shed event:\n%s", body)
		}

		close(release)
		if code := <-parked; code != http.StatusOK {
			t.Errorf("parked request = %d, want 200", code)
		}
		srv.Close()
	}
}

// testKit is a Kit whose logger writes to the returned buffer and whose
// flight recorder already holds one event.
func testKit() (*Kit, *bytes.Buffer) {
	var logs bytes.Buffer
	k := &Kit{Logger: slog.New(slog.NewTextHandler(&logs, nil)), Flight: flight.New(8)}
	k.Flight.Record(flight.KindShed, "0123456789abcdef0123456789abcdef", "queue_full tenant=%s", "t1")
	return k, &logs
}

func wantDump(t *testing.T, logs string) {
	t.Helper()
	for _, want := range []string{"flight recorder dump", "kind=shed", "queue_full tenant=t1"} {
		if !strings.Contains(logs, want) {
			t.Errorf("log output lacks %q:\n%s", want, logs)
		}
	}
}

// TestServeListenFailure: a listener that fails at once — here one
// already closed — stops the server before it starts; Serve must hand
// the accept error back to main and still dump the flight recorder
// through the logger, or the anomalies recorded so far die with the
// process.
func TestServeListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	k, logs := testKit()
	err = k.Serve(context.Background(), ln, http.NotFoundHandler())
	if !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve on a closed listener = %v, want its accept error", err)
	}
	wantDump(t, logs.String())
}

// TestServeStopsOnCancel: cancelling ctx is the same stop a signal is —
// Serve answers requests until then, and returns nil having dumped the
// flight recorder. A connection that never carried a request, as an
// http.Transport dials ahead, does not hold the drain: the server
// accepts it before the GET's (the accept queue is FIFO), and Serve
// still drains inside its five-second budget.
func TestServeStopsOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k, logs := testKit()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- k.Serve(ctx, ln, http.NotFoundHandler()) }()
	silent, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if resp, _ := get(t, "http://"+ln.Addr().String()+"/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET / = %d, want the handler's 404", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("Serve after cancel = %v, want nil", err)
	}
	wantDump(t, logs.String())
	if !strings.Contains(logs.String(), "shutting down") {
		t.Errorf("no shutdown log line:\n%s", logs.String())
	}
}

// TestDashboardDataNames: a -data name also names the dataset's
// directory under -cache-dir, whose disk tier wipes its .blk files at
// startup. A name that is empty, repeated, or not one local path
// element is refused before any cache is built, so nothing outside the
// cache directory is touched; a plain name gets its own subdirectory.
func TestDashboardDataNames(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	files, err := storage.NewFileStore(filepath.Join(dir, "ds"))
	if err != nil {
		t.Fatal(err)
	}
	in := []convert.Input{{FieldName: "f", Grid: raster.New(8, 8)}}
	if _, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(files, ""), in, convert.IDXOptions{}); err != nil {
		t.Fatal(err)
	}
	// Where case "parent" (-data ../x=) would put x's disk tier.
	outside := filepath.Join(dir, "cache", "x", "kept.blk")
	if err := os.MkdirAll(filepath.Dir(outside), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outside, []byte("block"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds := filepath.Join(dir, "ds")
	for _, tc := range []struct {
		name string
		data []string
		ok   bool
	}{
		{"plain", []string{"x=" + ds}, true},
		{"two names", []string{"x=" + ds, "y=" + ds}, true},
		{"empty", []string{"=" + ds}, false},
		{"parent", []string{"../x=" + ds}, false},
		{"nested", []string{"a/x=" + ds}, false},
		{"absolute", []string{filepath.Join(dir, "x") + "=" + ds}, false},
		{"dot", []string{".=" + ds}, false},
		{"repeated", []string{"x=" + ds, "x=" + ds}, false},
		{"no path", []string{"x"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cacheDir := filepath.Join(dir, "cache", tc.name)
			k, err := Start(Options{Service: "dashboard", Cache: cache.Options{DiskDir: cacheDir, DiskBytes: 1 << 20}})
			if err != nil {
				t.Fatal(err)
			}
			server, _, err := k.DashboardHandler(ctx, tc.data, 0)
			if !tc.ok {
				if err == nil || !strings.Contains(err.Error(), "bad -data") {
					t.Errorf("DashboardHandler(%q) = %v, want a bad -data error", tc.data, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("DashboardHandler(%q) = %v", tc.data, err)
			}
			if got := len(server.Datasets()); got != len(tc.data) {
				t.Errorf("%d datasets registered, want %d", got, len(tc.data))
			}
			if _, err := os.Stat(filepath.Join(cacheDir, "x")); err != nil {
				t.Errorf("x's disk tier is not in its own cache subdirectory: %v", err)
			}
		})
	}
	if _, err := os.Stat(outside); err != nil {
		t.Errorf("a block file outside the cache directory was wiped: %v", err)
	}
}

// byteStream is an endless deterministic byte stream.
type byteStream struct{ off int }

// streamPeriod is what byteStream repeats: a prime length, so a chunk
// served at the wrong offset changes the stream's digest.
var streamPeriod = func() []byte {
	b := make([]byte, 4093)
	for i := range b {
		b[i] = byte(uint32(i) * 2654435761 >> 24)
	}
	return b
}()

func (s *byteStream) Read(b []byte) (int, error) {
	n := copy(b, streamPeriod[s.off:])
	s.off = (s.off + n) % len(streamPeriod)
	return n, nil
}

// TestStoreHandlerStreamsObjects: behind the shipped middleware, a GET
// of a 64 MiB object from the leaf plane peers replicate through, and
// from the public plane, allocates at most 1/16 of the object, client
// side included: the node copies the file to the connection and never
// holds the object.
func TestStoreHandlerStreamsObjects(t *testing.T) {
	const size = 64 << 20
	k, err := Start(Options{Service: "store", NodeName: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	h, err := k.StoreHandler(root)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if err := os.MkdirAll(filepath.Join(root, "big"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(root, "big", "object.bin"))
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.New()
	if _, err := io.Copy(io.MultiWriter(f, want), io.LimitReader(&byteStream{}, size)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{internalPlane + "/obj/big/object.bin", "/obj/big/object.bin"} {
		got := sha256.New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(got, resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if err != nil || resp.StatusCode != http.StatusOK || n != size {
			t.Fatalf("GET %s: status %d, %d bytes, %v", path, resp.StatusCode, n, err)
		}
		if !bytes.Equal(got.Sum(nil), want.Sum(nil)) {
			t.Errorf("GET %s: body differs from the object", path)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > size/16 {
			t.Errorf("GET %s of a %d-byte object allocates %d bytes, want <= %d", path, size, alloc, size/16)
		}
	}
}
