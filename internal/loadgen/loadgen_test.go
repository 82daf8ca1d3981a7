package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// fakeServer mimics the dashboard's serving surface: a catalogue at
// /api/datasets and a data endpoint whose behaviour is scripted per
// test (normal, shedding, hanging).
type fakeServer struct {
	mu       sync.Mutex
	requests []*http.Request
	handle   func(w http.ResponseWriter, r *http.Request)
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/datasets" {
		json.NewEncoder(w).Encode([]Dataset{
			{Name: "popular", Fields: []string{"elevation", "slope"}, Width: 256, Height: 128, Timesteps: 3, MaxLevel: 8},
			{Name: "tail-a", Fields: []string{"elevation"}, Width: 64, Height: 64, Timesteps: 1, MaxLevel: 6},
			{Name: "tail-b", Fields: []string{"elevation"}, Width: 64, Height: 64, Timesteps: 1, MaxLevel: 6},
		})
		return
	}
	f.mu.Lock()
	f.requests = append(f.requests, r.Clone(context.Background()))
	f.mu.Unlock()
	if f.handle != nil {
		f.handle(w, r)
		return
	}
	w.Write(make([]byte, 64))
}

func (f *fakeServer) captured() []*http.Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*http.Request(nil), f.requests...)
}

func TestRunClosedLoopShapesWorkload(t *testing.T) {
	fake := &fakeServer{}
	srv := httptest.NewServer(fake)
	defer srv.Close()

	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Rate:        0, // closed loop
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		Seed:        42,
		Tenants:     4,
		Progressive: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Requests == 0 || rep.Total.OK != rep.Total.Requests {
		t.Fatalf("want all-OK traffic, got %+v", rep.Total)
	}
	if rep.Total.Goodput <= 0 || rep.Total.P50ms <= 0 {
		t.Errorf("missing aggregates: %+v", rep.Total)
	}

	reqs := fake.captured()
	byDataset := map[string]int{}
	tenants := map[string]bool{}
	progressive := false
	for _, r := range reqs {
		qv := r.URL.Query()
		byDataset[qv.Get("dataset")]++
		if tn := r.Header.Get("X-NSDF-Tenant"); tn != "" {
			tenants[tn] = true
		}
		if lv, _ := strconv.Atoi(qv.Get("level")); lv < 5 {
			progressive = true // coarse first pass of a refinement stream
		}
		if qv.Get("field") == "" {
			t.Fatalf("request without field: %s", r.URL)
		}
	}
	// Zipfian popularity: the rank-1 dataset must dominate the tail.
	if byDataset["popular"] <= byDataset["tail-a"] || byDataset["popular"] <= byDataset["tail-b"] {
		t.Errorf("popularity not zipfian: %v", byDataset)
	}
	if len(tenants) < 2 {
		t.Errorf("want multiple synthetic tenants, got %v", tenants)
	}
	if !progressive {
		t.Error("no progressive (coarse-level) requests captured")
	}
}

func TestRunOpenLoopCountsShedsAndPhases(t *testing.T) {
	fake := &fakeServer{handle: func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "over capacity", http.StatusTooManyRequests)
	}}
	srv := httptest.NewServer(fake)
	defer srv.Close()

	start := time.Now()
	rep, err := Run(context.Background(), Options{
		BaseURL:     srv.URL,
		Rate:        200,
		Concurrency: 8,
		Phases: []Phase{
			{Name: "warm", Duration: 150 * time.Millisecond, Rate: 1},
			{Name: "pause", Duration: 50 * time.Millisecond, Rate: 0},
			{Name: "burst", Duration: 150 * time.Millisecond, Rate: 2},
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 3 || rep.Phases[0].Name != "warm" || rep.Phases[1].Name != "pause" || rep.Phases[2].Name != "burst" {
		t.Fatalf("phase reports: %+v", rep.Phases)
	}
	if rep.Total.Shed == 0 || rep.Total.OK != 0 {
		t.Errorf("want all-shed traffic, got %+v", rep.Total)
	}
	if rep.Total.Requests != rep.Phases[0].Requests+rep.Phases[2].Requests {
		t.Errorf("total %d != phase sum %d+%d", rep.Total.Requests, rep.Phases[0].Requests, rep.Phases[2].Requests)
	}
	// A zero-rate phase offers nothing but still takes its time.
	if rep.Phases[1].Requests != 0 || rep.Phases[1].Dropped != 0 {
		t.Errorf("zero-rate phase offered traffic: %+v", rep.Phases[1])
	}
	if took := time.Since(start); took < 350*time.Millisecond {
		t.Errorf("run took %v, want at least the phases' 350ms", took)
	}
}

// TestRunCompletesAgainstHangingServer pins the no-hangs acceptance
// property: a wedged (or killed mid-read) server degrades the run into
// failed samples and dropped arrivals, never into a stuck load
// generator.
func TestRunCompletesAgainstHangingServer(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	fake := &fakeServer{handle: func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}}
	srv := httptest.NewServer(fake)
	defer srv.Close()

	done := make(chan *Report, 1)
	go func() {
		rep, err := Run(context.Background(), Options{
			BaseURL:     srv.URL,
			Rate:        50,
			Concurrency: 1,
			Duration:    200 * time.Millisecond,
			Timeout:     100 * time.Millisecond,
			Seed:        3,
		})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep == nil {
			t.Fatal("no report")
		}
		if rep.Total.Failed == 0 {
			t.Errorf("want timed-out samples, got %+v", rep.Total)
		}
		// One worker held 100ms per stream against a 20ms tick: the
		// arrivals it cannot take are dropped, not queued.
		if rep.Total.Dropped == 0 {
			t.Errorf("want dropped arrivals, got %+v", rep.Total)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("load generator hung against a wedged server")
	}
}

func TestProgressiveLevelsCoarseToFine(t *testing.T) {
	got := progressiveLevels(8, 3)
	want := []int{4, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if lv := progressiveLevels(2, 4); lv[0] != 0 {
		t.Errorf("clamping failed: %v", lv)
	}
}

func TestDiscoverErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()
	if _, err := Discover(context.Background(), http.DefaultClient, srv.URL); err == nil {
		t.Fatal("want error from a catalogue-less server")
	}
}
