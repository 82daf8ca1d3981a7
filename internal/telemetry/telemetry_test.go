package telemetry

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one gauge, and one
// histogram from many goroutines; run under -race this doubles as the
// data-race check for the whole hot path.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve series inside the goroutine too: lookup must be
			// concurrency-safe, not just the increments.
			c := reg.Counter("ops_total", "op", "get")
			gg := reg.Gauge("in_flight")
			h := reg.Histogram("latency_seconds")
			for i := 0; i < perG; i++ {
				c.Inc()
				gg.Set(1)
				gg.Set(0)
				h.Observe(0.003)
			}
		}()
	}
	wg.Wait()

	if got := reg.Counter("ops_total", "op", "get").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Gauge("in_flight").Value(); got != 0 {
		t.Errorf("gauge = %g, want 0", got)
	}
	snap := reg.Histogram("latency_seconds").Snapshot()
	if snap.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", snap.Count, goroutines*perG)
	}
	wantSum := float64(goroutines*perG) * 0.003
	if math.Abs(snap.Sum-wantSum) > wantSum*1e-9 {
		t.Errorf("histogram sum = %g, want %g", snap.Sum, wantSum)
	}
}

// TestCounterMonotonic verifies negative deltas are dropped.
func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5 (negative add must be ignored)", c.Value())
	}
}

// TestSameSeriesSameInstance checks that registry lookups are idempotent
// and that label order does not split a series.
func TestSameSeriesSameInstance(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "a", "1", "b", "2")
	b := reg.Counter("x_total", "b", "2", "a", "1")
	if a != b {
		t.Fatal("same name+labels in different order returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("increments not shared")
	}
}

// TestHistogramPercentiles checks the interpolation against a known
// distribution: 100 observations spread uniformly within one bucket.
func TestHistogramPercentiles(t *testing.T) {
	h := newHistogram(nil)
	// 90 fast ops at ~2ms, 10 slow at ~80ms.
	for i := 0; i < 90; i++ {
		h.Observe(0.002)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.08)
	}
	s := h.Snapshot()
	// p50 must land in the (0.001, 0.0025] bucket, p95 and p99 in the
	// (0.05, 0.1] bucket.
	if s.P50 <= 0.001 || s.P50 > 0.0025 {
		t.Errorf("p50 = %g, want within (0.001, 0.0025]", s.P50)
	}
	if s.P95 <= 0.05 || s.P95 > 0.1 {
		t.Errorf("p95 = %g, want within (0.05, 0.1]", s.P95)
	}
	if s.P99 <= 0.05 || s.P99 > 0.1 {
		t.Errorf("p99 = %g, want within (0.05, 0.1]", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("percentiles not monotone: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
	}
}

// TestExpositionGolden locks the text format: family ordering, label
// canonicalisation, cumulative buckets, sum/count, and quantile lines.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bb_ops_total", "op", "get").Add(7)
	reg.Counter("bb_ops_total", "op", "put").Add(3)
	reg.Gauge("aa_entries").Set(12.5)
	reg.GaugeFunc("cc_live", func() float64 { return 4 })
	h := reg.Histogram("dd_seconds")
	h.Observe(0.0002) // (0.0001, 0.00025] bucket
	h.Observe(0.0002)
	h.Observe(0.3) // (0.25, 0.5] bucket

	var b strings.Builder
	if err := reg.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# TYPE aa_entries gauge
aa_entries 12.5
# TYPE bb_ops_total counter
bb_ops_total{op="get"} 7
bb_ops_total{op="put"} 3
# TYPE cc_live gauge
cc_live 4
# TYPE dd_seconds histogram
dd_seconds_bucket{le="0.0001"} 0
dd_seconds_bucket{le="0.00025"} 2
dd_seconds_bucket{le="0.0005"} 2
dd_seconds_bucket{le="0.001"} 2
dd_seconds_bucket{le="0.0025"} 2
dd_seconds_bucket{le="0.005"} 2
dd_seconds_bucket{le="0.01"} 2
dd_seconds_bucket{le="0.025"} 2
dd_seconds_bucket{le="0.05"} 2
dd_seconds_bucket{le="0.1"} 2
dd_seconds_bucket{le="0.25"} 2
dd_seconds_bucket{le="0.5"} 3
dd_seconds_bucket{le="1"} 3
dd_seconds_bucket{le="2.5"} 3
dd_seconds_bucket{le="5"} 3
dd_seconds_bucket{le="10"} 3
dd_seconds_bucket{le="+Inf"} 3
dd_seconds_sum 0.3004
dd_seconds_count 3
`
	lines := strings.SplitAfter(got, "\n")
	if len(lines) < 4 {
		t.Fatalf("exposition too short:\n%s", got)
	}
	// The last three non-empty lines are the estimated quantiles, whose
	// interpolated values carry float noise — check those numerically.
	exact := strings.Join(lines[:len(lines)-4], "")
	if exact != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", exact, want)
	}
	for i, q := range []struct {
		label string
		want  float64
	}{
		{`dd_seconds{quantile="0.5"} `, 0.0002125}, // interpolated within (0.0001, 0.00025]
		{`dd_seconds{quantile="0.95"} `, 0.4625},   // interpolated within (0.25, 0.5]
		{`dd_seconds{quantile="0.99"} `, 0.4925},
	} {
		line := strings.TrimSuffix(lines[len(lines)-4+i], "\n")
		if !strings.HasPrefix(line, q.label) {
			t.Errorf("quantile line %d = %q, want prefix %q", i, line, q.label)
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, q.label), 64)
		if err != nil {
			t.Errorf("quantile line %d value: %v", i, err)
			continue
		}
		if math.Abs(v-q.want) > 1e-9 {
			t.Errorf("quantile line %d = %g, want %g", i, v, q.want)
		}
	}
}

// TestHandlerServesExposition exercises the /metrics handler end to end.
func TestHandlerServesExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("exposition missing counter: %q", body)
	}
}

// TestSumFamilyAndQuantiles covers the cmd-level summary helpers.
func TestSumFamilyAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_total", "k", "a").Add(2)
	reg.Counter("t_total", "k", "b").Add(5)
	if got := reg.SumFamily("t_total"); got != 7 {
		t.Errorf("SumFamily = %g, want 7", got)
	}
	if got := reg.SumFamily("absent"); got != 0 {
		t.Errorf("SumFamily(absent) = %g, want 0", got)
	}
	if _, _, _, ok := reg.FamilyQuantiles("t_total"); ok {
		t.Error("FamilyQuantiles over a counter family must report !ok")
	}
	h1 := reg.Histogram("lat_seconds", "k", "a")
	h2 := reg.Histogram("lat_seconds", "k", "b")
	for i := 0; i < 50; i++ {
		h1.Observe(0.002)
		h2.Observe(0.002)
	}
	p50, p95, p99, ok := reg.FamilyQuantiles("lat_seconds")
	if !ok {
		t.Fatal("FamilyQuantiles not ok with observations present")
	}
	for _, p := range []float64{p50, p95, p99} {
		if p <= 0.001 || p > 0.0025 {
			t.Errorf("merged quantile %g outside observation bucket (0.001, 0.0025]", p)
		}
	}
}

// TestObserveSince sanity-checks the time helper.
func TestObserveSince(t *testing.T) {
	h := newHistogram(nil)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.Sum < 0.009 {
		t.Errorf("ObserveSince recorded count=%d sum=%g, want ~0.01s", s.Count, s.Sum)
	}
}
