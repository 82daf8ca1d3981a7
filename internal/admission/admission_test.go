package admission

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/telemetry"
)

func TestDisabledControllerAdmitsEverything(t *testing.T) {
	c := NewController(Options{})
	for i := 0; i < 100; i++ {
		release, err := c.Acquire(context.Background(), "t")
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		release()
	}
	if p := c.Pressure(); p != 0 {
		t.Errorf("disabled controller pressure = %v, want 0", p)
	}
}

func TestConcurrencyBoundAndQueueShed(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 2, MaxQueue: 1})
	ctx := context.Background()
	r1, err := c.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	// Third acquire queues; do it from a goroutine.
	granted := make(chan error, 1)
	go func() { // queued behind the two in flight
		release, err := c.Acquire(ctx, "a")
		if err == nil {
			defer release()
		}
		granted <- err
	}()
	// Wait until it is actually queued.
	deadline := time.Now().Add(2 * time.Second)
	for c.Pressure() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("third acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Fourth overflows the queue: shed, immediately.
	_, err = c.Acquire(ctx, "a")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonQueueFull {
		t.Fatalf("overflow acquire: %v, want queue_full shed", err)
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("shed retry-after %v, want > 0", shed.RetryAfter)
	}
	// Releasing a slot grants the queued waiter.
	r1()
	if err := <-granted; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	r2()
}

func TestQueueIsFIFO(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, MaxQueue: 8})
	ctx := context.Background()
	first, err := c.Acquire(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	started := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started // serialized below: goroutine i enqueues before i+1 starts
			release, err := c.Acquire(ctx, "t")
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			release()
		}(i)
		// Enqueue one at a time so arrival order is deterministic.
		if i == 0 {
			close(started)
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			c.mu.Lock()
			n := len(c.queue)
			c.mu.Unlock()
			if n == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never enqueued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	first()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO 0..%d", order, waiters-1)
		}
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond})
	release, err := c.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	_, err = c.Acquire(context.Background(), "t")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonQueueTimeout {
		t.Fatalf("got %v, want queue_timeout shed", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timed-out acquire took %v", elapsed)
	}
	// The abandoned waiter must not linger in the queue.
	c.mu.Lock()
	depth := len(c.queue)
	c.mu.Unlock()
	if depth != 0 {
		t.Errorf("queue depth %d after timeout, want 0", depth)
	}
}

func TestCancelledWaiterLeavesQueue(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, MaxQueue: 4})
	release, err := c.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, "t")
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.queue)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never enqueued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v", err)
	}
	release()
	// The slot must be grantable again (the cancelled waiter did not eat it).
	r2, err := c.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
	r2()
}

func TestTenantRateLimitIsolatesTenants(t *testing.T) {
	base := time.Unix(0, 0)
	now := base
	c := NewController(Options{TenantRate: 1, TenantBurst: 2, now: func() time.Time { return now }})
	// Tenant a burns its burst.
	for i := 0; i < 2; i++ {
		if _, err := c.Acquire(context.Background(), "a"); err != nil {
			t.Fatalf("a burst %d: %v", i, err)
		}
	}
	_, err := c.Acquire(context.Background(), "a")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonRateLimit {
		t.Fatalf("a over burst: %v, want ratelimit shed", err)
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > 2*time.Second {
		t.Errorf("retry-after %v, want (0,2s]", shed.RetryAfter)
	}
	// Tenant b is unaffected.
	if _, err := c.Acquire(context.Background(), "b"); err != nil {
		t.Fatalf("b: %v", err)
	}
	// After 1.5s tenant a has ~1.5 tokens: one more admit, then shed again.
	now = base.Add(1500 * time.Millisecond)
	if _, err := c.Acquire(context.Background(), "a"); err != nil {
		t.Fatalf("a after refill: %v", err)
	}
	if _, err := c.Acquire(context.Background(), "a"); err == nil {
		t.Fatal("a admitted beyond refill")
	}
}

// TestTenantMapIsBounded: the tenant is an untrusted header, so a flood
// of new names at one instant must neither grow the map past maxTenants
// nor cost each newcomer a full-map sweep. Past the bound, newcomers
// share one overflow bucket and are still rate-limited; once the refill
// horizon has passed, the idle buckets are swept and a newcomer gets a
// bucket of its own again.
func TestTenantMapIsBounded(t *testing.T) {
	base := time.Unix(0, 0)
	now := base
	c := NewController(Options{TenantRate: 1, TenantBurst: 2, now: func() time.Time { return now }})
	ctx := context.Background()
	var shed []error
	for i := 0; i < maxTenants+100; i++ {
		if _, err := c.Acquire(ctx, fmt.Sprintf("t%d", i)); err != nil {
			shed = append(shed, err)
		}
	}
	if n := len(c.tenants); n > maxTenants {
		t.Fatalf("%d tenants at one instant left %d buckets, want at most %d", maxTenants+100, n, maxTenants)
	}
	if len(shed) != 98 {
		t.Fatalf("%d of the 100 newcomers past the bound shed, want all but the shared burst of 2", len(shed))
	}
	if got, want := shed[0].Error(), "admission: shed (ratelimit), retry after 1s"; got != want {
		t.Errorf("overflow shed = %q, want %q", got, want)
	}
	now = base.Add(3 * time.Second) // past the 2 s horizon
	if _, err := c.Acquire(ctx, "late"); err != nil {
		t.Fatalf("newcomer after the horizon: %v", err)
	}
	if c.tenants["late"] == nil || len(c.tenants) != 1 {
		t.Errorf("after the horizon: %d buckets, late has one: %v; want the idle swept and late's own", len(c.tenants), c.tenants["late"] != nil)
	}
}

func TestPressureTracksLoad(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 2, MaxQueue: 2})
	ctx := context.Background()
	if p := c.Pressure(); p != 0 {
		t.Fatalf("idle pressure %v", p)
	}
	r1, _ := c.Acquire(ctx, "t")
	if p := c.Pressure(); p != 0.25 {
		t.Fatalf("pressure with 1/4 used = %v, want 0.25", p)
	}
	r2, _ := c.Acquire(ctx, "t")
	if p := c.Pressure(); p != 0.5 {
		t.Fatalf("pressure with 2/4 used = %v, want 0.5", p)
	}
	r1()
	r2()
	if p := c.Pressure(); p != 0 {
		t.Fatalf("pressure after release = %v, want 0", p)
	}
}

func TestTelemetrySeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewController(Options{MaxConcurrent: 1, MaxQueue: 1, TenantRate: 1000, TenantBurst: 1000})
	c.Instrument(reg, "test")
	gauge := func(name string) float64 { return reg.Gauge(name, "service", "test").Value() }
	release, err := c.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	// A second request queues behind the first; a third finds the queue
	// full.
	queued := make(chan func(), 1)
	go func() {
		r, err := c.Acquire(context.Background(), "t")
		if err != nil {
			t.Error(err)
			r = func() {}
		}
		queued <- r
	}()
	for deadline := time.Now().Add(5 * time.Second); gauge("nsdf_admission_queue_depth") != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
	}
	if got := gauge("nsdf_admission_inflight"); got != 1 {
		t.Errorf("inflight = %v with one request admitted, want 1", got)
	}
	if _, err := c.Acquire(context.Background(), "t"); err == nil {
		t.Fatal("third acquire admitted past MaxConcurrent=1, MaxQueue=1")
	}
	release()
	(<-queued)()
	if got := reg.Counter("nsdf_admission_admitted_total", "service", "test").Value(); got != 2 {
		t.Errorf("admitted = %d, want 2", got)
	}
	if got := reg.Counter("nsdf_admission_queued_total", "service", "test").Value(); got != 1 {
		t.Errorf("queued = %d, want 1", got)
	}
	if got := reg.Counter("nsdf_admission_shed_total", "service", "test", "reason", ReasonQueueFull).Value(); got != 1 {
		t.Errorf("shed{queue_full} = %d, want 1", got)
	}
	if got := reg.Histogram("nsdf_admission_wait_seconds", "service", "test").Snapshot().Count; got != 2 {
		t.Errorf("wait_seconds observed %d waits, want one per admitted request", got)
	}
	if depth, inflight := gauge("nsdf_admission_queue_depth"), gauge("nsdf_admission_inflight"); depth != 0 || inflight != 0 {
		t.Errorf("after both releases: queue_depth = %v, inflight = %v, want 0 and 0", depth, inflight)
	}
}

func TestMiddlewareShedsWith429AndRetryAfter(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, MaxQueue: 0})
	var handled atomic.Int64
	blocker := make(chan struct{})
	h := c.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handled.Add(1)
		if r.URL.Path == "/slow" {
			<-blocker
		}
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Occupy the single slot.
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Get(srv.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for handled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(srv.URL + "/fast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive seconds hint", ra)
	}
	if handled.Load() != 1 {
		t.Errorf("shed request reached the handler")
	}
	close(blocker)
	<-slowDone
}

func TestMiddlewareExemptsOperationalPaths(t *testing.T) {
	c := NewController(Options{MaxConcurrent: 1, MaxQueue: 0, TenantRate: 0.0001, TenantBurst: 0.0001})
	h := c.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	for _, path := range []string{"/metrics", "/healthz", "/debug/traces", "/internal/o/x"} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200 (exempt)", path, rec.Code)
		}
	}
	// A data path with the same starved bucket is shed.
	req := httptest.NewRequest("GET", "/api/render", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("data path: status %d, want 429", rec.Code)
	}
}

func TestTenantKeyPrefersHeader(t *testing.T) {
	r := httptest.NewRequest("GET", "/", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if k := TenantKey(r); k != "10.1.2.3" {
		t.Errorf("addr tenant = %q", k)
	}
	r.Header.Set(TenantHeader, "cohort-7")
	if k := TenantKey(r); k != "cohort-7" {
		t.Errorf("header tenant = %q", k)
	}
}

// TestAcquireReleaseRace hammers the limiter from many goroutines under
// -race, asserting the in-flight bound is never exceeded and all slots
// come back.
func TestAcquireReleaseRace(t *testing.T) {
	const maxC = 4
	c := NewController(Options{MaxConcurrent: maxC, MaxQueue: 8, QueueTimeout: 50 * time.Millisecond})
	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 50; i++ {
				release, err := c.Acquire(ctx, "t")
				if err != nil {
					continue // shed under load: expected
				}
				n := inflight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				if n > maxC {
					t.Errorf("inflight %d exceeds bound %d", n, maxC)
				}
				inflight.Add(-1)
				release()
			}
		}(g)
	}
	wg.Wait()
	if c.Pressure() != 0 {
		t.Errorf("pressure %v after drain, want 0", c.Pressure())
	}
	if peak.Load() == 0 {
		t.Error("nothing ran")
	}
}
