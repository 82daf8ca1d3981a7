package serverkit

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/cache"
	"nsdfgo/internal/shard"
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
		-tenant-burst 10 -retry-after 11s -peers a=http://h -replicas 12 -hedge-after 13s -cache-mb 14
		-cache-dir d -cache-disk-bytes 15`))
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		NodeName: "n", LogFormat: "json", PprofAddr: ":1", TraceBuffer: 2, FlightBuffer: 3,
		SlowRequest: 4 * time.Second, RequestTimeout: 5 * time.Second,
		Admission: admission.Options{MaxConcurrent: 6, MaxQueue: 7, QueueTimeout: 8 * time.Second,
			TenantRate: 9, TenantBurst: 10, RetryAfter: 11 * time.Second},
		Peers: "a=http://h", Shard: shard.Options{Replicas: 12, HedgeAfter: 13 * time.Second},
		CacheMB: 14, Cache: cache.Options{DiskDir: "d", DiskBytes: 15},
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
		mux.HandleFunc(InternalPlane+"/", ok)
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
		for _, path := range []string{"/metrics", "/healthz", "/debug/traces", "/debug/flightrecorder", InternalPlane + "/obj/x"} {
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

// TestServeListenFailure: with the address already bound the server
// cannot start; Serve must hand the listen error back to main and still
// dump the flight recorder through the logger, or the anomalies
// recorded so far die with the process.
func TestServeListenFailure(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	k, logs := testKit()
	err = k.Serve(context.Background(), taken.Addr().String(), http.NotFoundHandler())
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("Serve on a bound address = %v, want the listen error", err)
	}
	wantDump(t, logs.String())
}

// TestServeStopsOnCancel: cancelling ctx is the same stop a signal is —
// Serve answers requests until then, and returns nil having dumped the
// flight recorder.
func TestServeStopsOnCancel(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	k, logs := testKit()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- k.Serve(ctx, addr, http.NotFoundHandler()) }()
	for {
		resp, err := http.Get("http://" + addr + "/")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("Serve returned %v before it was cancelled", err)
		case <-time.After(5 * time.Millisecond):
		}
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
