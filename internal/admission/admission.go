// Package admission keeps the NSDF serving tier standing under heavy
// traffic. The paper's services exist to serve large training cohorts
// concurrently; community data ecosystems at that scale stay usable
// because their serving tiers shed and bound load instead of
// collapsing. This package provides the two mechanisms the servers
// wire in front of every data endpoint:
//
//   - per-tenant token-bucket rate limiting (tenant resolved from the
//     X-NSDF-Tenant header, falling back to the client address), so one
//     greedy notebook cannot starve a classroom, and
//   - a global concurrency limiter with a bounded FIFO wait queue:
//     requests beyond the in-flight bound wait their turn, and requests
//     beyond the queue bound are shed immediately as 429 with a
//     Retry-After hint, keeping admitted-request latency bounded no
//     matter the offered load.
//
// The controller also exposes its instantaneous Pressure, which an idx
// fetch pool can be handed (idx.Dataset.SetFetchPressure). It shrinks
// only a fan-out the embedding program raised with SetFetchParallelism
// — a read fetches one block at a time by default, and then there is
// nothing to contract.
package admission

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
)

// Shed reasons, used both as error details and telemetry label values.
const (
	ReasonRateLimit    = "ratelimit"
	ReasonQueueFull    = "queue_full"
	ReasonQueueTimeout = "queue_timeout"
)

// ShedError reports a request the controller refused to admit.
// RetryAfter is the hint a client (or the HTTP middleware's Retry-After
// header) should wait before trying again.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

// Options configures a Controller. The zero value disables everything
// (every request admitted immediately).
type Options struct {
	// MaxConcurrent bounds globally how many admitted requests run at
	// once. <= 0 disables concurrency limiting.
	MaxConcurrent int
	// MaxQueue bounds the FIFO wait queue behind the concurrency
	// limiter. Requests arriving with the queue full are shed. <= 0
	// means no queue: everything beyond MaxConcurrent is shed.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before being shed. <= 0 waits until the request context expires.
	QueueTimeout time.Duration
	// TenantRate is the per-tenant steady admission rate in requests
	// per second. <= 0 disables rate limiting.
	TenantRate float64
	// TenantBurst is the token-bucket capacity per tenant; it defaults
	// to max(1, TenantRate).
	TenantBurst float64
	// RetryAfter is the hint attached to queue sheds (rate-limit sheds
	// compute theirs from the bucket's refill time). Defaults to 1s.
	RetryAfter time.Duration

	// now is a test hook; nil uses time.Now.
	now func() time.Time
}

// maxTenants bounds the tenant-bucket map; beyond it, buckets idle past
// their own refill horizon are swept on the next insert.
const maxTenants = 4096

// bucket is one tenant's token bucket. Refill happens lazily at take
// time, so an idle tenant costs nothing.
type bucket struct {
	tokens float64
	last   time.Time
}

// waiter is one queued request. ch has capacity 1 so the releaser's
// grant never blocks; granted/abandoned are written under Controller.mu
// to resolve the grant-vs-give-up race.
type waiter struct {
	ch        chan struct{}
	granted   bool
	abandoned bool
}

// Controller applies admission policy. The zero value is unusable; use
// NewController. All methods are safe for concurrent use.
type Controller struct {
	opts Options

	mu       sync.Mutex
	inflight int
	queue    []*waiter
	tenants  map[string]*bucket

	admitted    *telemetry.Counter
	queued      *telemetry.Counter
	shed        map[string]*telemetry.Counter
	queueDepth  *telemetry.Gauge
	inflightG   *telemetry.Gauge
	waitSeconds *telemetry.Histogram

	// fl receives a shed flight event for every rejected request; nil
	// disables (SetFlight).
	fl atomic.Pointer[flight.Recorder]
}

// SetFlight wires the flight recorder that receives one shed event per
// rejected request, stamped with the tenant, reason, and active trace
// ID. Safe to call concurrently with admission decisions.
func (c *Controller) SetFlight(fl *flight.Recorder) {
	if fl != nil {
		c.fl.Store(fl)
	}
}

// NewController builds a controller from opts.
func NewController(opts Options) *Controller {
	if opts.TenantRate > 0 && opts.TenantBurst <= 0 {
		opts.TenantBurst = opts.TenantRate
		if opts.TenantBurst < 1 {
			opts.TenantBurst = 1
		}
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	return &Controller{opts: opts, tenants: make(map[string]*bucket)}
}

// Instrument registers the controller's telemetry series:
//
//	nsdf_admission_admitted_total{service}       requests admitted
//	nsdf_admission_queued_total{service}         requests that waited in the queue
//	nsdf_admission_shed_total{service,reason}    requests refused (ratelimit, queue_full, queue_timeout)
//	nsdf_admission_queue_depth{service}          current wait-queue depth
//	nsdf_admission_inflight{service}             currently admitted requests
//	nsdf_admission_wait_seconds{service}         queue wait time of admitted requests
func (c *Controller) Instrument(reg *telemetry.Registry, service string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.admitted = reg.Counter("nsdf_admission_admitted_total", "service", service)
	c.queued = reg.Counter("nsdf_admission_queued_total", "service", service)
	c.shed = map[string]*telemetry.Counter{
		ReasonRateLimit:    reg.Counter("nsdf_admission_shed_total", "service", service, "reason", ReasonRateLimit),
		ReasonQueueFull:    reg.Counter("nsdf_admission_shed_total", "service", service, "reason", ReasonQueueFull),
		ReasonQueueTimeout: reg.Counter("nsdf_admission_shed_total", "service", service, "reason", ReasonQueueTimeout),
	}
	c.queueDepth = reg.Gauge("nsdf_admission_queue_depth", "service", service)
	c.inflightG = reg.Gauge("nsdf_admission_inflight", "service", service)
	c.waitSeconds = reg.Histogram("nsdf_admission_wait_seconds", "service", service)
}

// bookShed increments the shed counter for reason, if instrumented.
func (c *Controller) bookShed(reason string) {
	c.mu.Lock()
	ctr := c.shed[reason]
	c.mu.Unlock()
	if ctr != nil {
		ctr.Inc()
	}
}

// Pressure reports how loaded the limiter is as a fraction in [0,1]:
// 0 when idle, 1 when every concurrency slot and queue position is
// taken. Disabled limiters report 0. The idx fetch pool consults this
// to shrink per-request fetch parallelism under load.
func (c *Controller) Pressure() float64 {
	if c.opts.MaxConcurrent <= 0 {
		return 0
	}
	c.mu.Lock()
	used := c.inflight + len(c.queue)
	c.mu.Unlock()
	capacity := c.opts.MaxConcurrent + c.opts.MaxQueue
	p := float64(used) / float64(capacity)
	if p > 1 {
		p = 1
	}
	return p
}

// takeToken consumes one token from tenant's bucket, reporting the wait
// until the next token when the bucket is empty.
func (c *Controller) takeToken(tenant string) (ok bool, retryAfter time.Duration) {
	now := c.opts.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.tenants[tenant]
	if b == nil {
		if len(c.tenants) >= maxTenants {
			c.sweepTenantsLocked(now)
		}
		b = &bucket{tokens: c.opts.TenantBurst, last: now}
		c.tenants[tenant] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * c.opts.TenantRate
		if b.tokens > c.opts.TenantBurst {
			b.tokens = c.opts.TenantBurst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / c.opts.TenantRate * float64(time.Second))
}

// sweepTenantsLocked drops buckets that have been idle long enough to
// have refilled completely — forgetting them loses no state.
func (c *Controller) sweepTenantsLocked(now time.Time) {
	horizon := time.Duration(c.opts.TenantBurst / c.opts.TenantRate * float64(time.Second))
	for k, b := range c.tenants {
		if now.Sub(b.last) > horizon {
			delete(c.tenants, k)
		}
	}
}

// Acquire admits one request for tenant, blocking in the FIFO queue if
// the concurrency limit is reached. On success it returns a release
// function the caller MUST invoke exactly once when the request
// finishes. On refusal it returns a *ShedError (or the context error,
// when the caller gave up while queued).
func (c *Controller) Acquire(ctx context.Context, tenant string) (release func(), err error) {
	if c.opts.TenantRate > 0 {
		if ok, retry := c.takeToken(tenant); !ok {
			c.bookShed(ReasonRateLimit)
			return nil, &ShedError{Reason: ReasonRateLimit, RetryAfter: retry}
		}
	}
	if c.opts.MaxConcurrent <= 0 {
		if c.admitted != nil {
			c.admitted.Inc()
		}
		return func() {}, nil
	}

	c.mu.Lock()
	if c.inflight < c.opts.MaxConcurrent {
		c.inflight++
		c.setGaugesLocked()
		admitted := c.admitted
		c.mu.Unlock()
		if admitted != nil {
			admitted.Inc()
		}
		if c.waitSeconds != nil {
			c.waitSeconds.Observe(0)
		}
		return c.releaseFunc(), nil
	}
	if len(c.queue) >= c.opts.MaxQueue {
		c.mu.Unlock()
		c.bookShed(ReasonQueueFull)
		return nil, &ShedError{Reason: ReasonQueueFull, RetryAfter: c.opts.RetryAfter}
	}
	w := &waiter{ch: make(chan struct{}, 1)}
	c.queue = append(c.queue, w)
	c.setGaugesLocked()
	queuedCtr := c.queued
	c.mu.Unlock()
	if queuedCtr != nil {
		queuedCtr.Inc()
	}

	start := c.opts.now()
	var timeout <-chan time.Time
	if c.opts.QueueTimeout > 0 {
		t := time.NewTimer(c.opts.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.ch:
		if c.waitSeconds != nil {
			c.waitSeconds.Observe(c.opts.now().Sub(start).Seconds())
		}
		if c.admitted != nil {
			c.admitted.Inc()
		}
		return c.releaseFunc(), nil
	case <-ctx.Done():
		if c.abandon(w) {
			return nil, ctx.Err()
		}
		// Granted concurrently with the cancellation: we hold a slot
		// nobody will use — pass it on.
		c.releaseSlot()
		return nil, ctx.Err()
	case <-timeout:
		if !c.abandon(w) {
			// Granted concurrently with the timeout; pass the slot on.
			c.releaseSlot()
		}
		c.bookShed(ReasonQueueTimeout)
		return nil, &ShedError{Reason: ReasonQueueTimeout, RetryAfter: c.opts.RetryAfter}
	}
}

// abandon removes w from the queue, reporting false when w was already
// granted a slot (in which case the caller owns that slot and must
// release it).
func (c *Controller) abandon(w *waiter) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.granted {
		return false
	}
	w.abandoned = true
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	c.setGaugesLocked()
	return true
}

// releaseFunc builds the idempotence-guarded release closure handed to
// admitted requests.
func (c *Controller) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(c.releaseSlot) }
}

// releaseSlot hands the freed slot to the head of the wait queue, or
// decrements inflight when nobody is waiting. FIFO order is the point:
// the queue is a fairness guarantee, not just a buffer.
func (c *Controller) releaseSlot() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) > 0 {
		head := c.queue[0]
		c.queue = c.queue[1:]
		if head.abandoned {
			continue
		}
		head.granted = true
		head.ch <- struct{}{}
		c.setGaugesLocked()
		return
	}
	c.inflight--
	c.setGaugesLocked()
}

// setGaugesLocked refreshes the depth/inflight gauges; caller holds mu.
func (c *Controller) setGaugesLocked() {
	if c.queueDepth != nil {
		c.queueDepth.Set(float64(len(c.queue)))
		c.inflightG.Set(float64(c.inflight))
	}
}
