package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTransient marks a failure injected by a Conditioned store's FailProb.
var ErrTransient = errors.New("storage: transient failure")

// NetworkProfile models a wide-area link between the client and a remote
// storage service: one round trip of latency per operation plus transfer
// time proportional to payload size, and optionally transient failures.
// The NSDF-Plugin measurements (Luettgau et al., HPDC 2023) motivate the
// default profiles.
type NetworkProfile struct {
	// RTT is the request round-trip time added to every operation.
	RTT time.Duration
	// BandwidthBps is the payload transfer rate in bytes per second; 0
	// means unlimited.
	BandwidthBps int64
	// Jitter is the maximum extra random delay added per operation.
	Jitter time.Duration
	// TailProb is the per-operation probability (0..1) of a heavy-tail
	// latency spike — the p99-and-beyond stragglers real object stores
	// exhibit (GC pauses, slow disks, congested links). 0 disables the
	// tail.
	TailProb float64
	// TailSpike is the extra delay added when a spike fires. The spike is
	// added on top of RTT, jitter, and transfer time, so the tail stays
	// heavy regardless of payload size.
	TailSpike time.Duration
	// FailProb is the per-operation probability (0..1) of a transient
	// failure (see Conditioned). 0 disables failures and draws nothing.
	FailProb float64
}

// Common profiles for experiments. Values are scaled down ~10x from
// realistic WAN numbers so test suites stay fast while preserving the
// relative ordering (local ≪ regional ≪ cross-country).
var (
	// ProfileLocal approximates same-site access.
	ProfileLocal = NetworkProfile{RTT: 200 * time.Microsecond, BandwidthBps: 1 << 30}
	// ProfileRegional approximates a same-region cloud store.
	ProfileRegional = NetworkProfile{RTT: 2 * time.Millisecond, BandwidthBps: 1 << 28, Jitter: 500 * time.Microsecond}
	// ProfileCrossCountry approximates a coast-to-coast object store.
	ProfileCrossCountry = NetworkProfile{RTT: 7 * time.Millisecond, BandwidthBps: 1 << 26, Jitter: 2 * time.Millisecond}
)

// Conditioned wraps a Store, delaying every operation according to a
// NetworkProfile so local experiments exhibit remote-access behaviour. An
// operation FailProb fails costs a payload-free round trip (like a miss),
// never reaches the inner store and returns an error wrapping ErrTransient.
type Conditioned struct {
	inner   Store
	profile NetworkProfile

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	ops, failed, bytesIn, bytesOut, totalWait atomic.Int64 // totalWait in ns
}

// NewConditioned wraps inner with the given profile. seed fixes the jitter,
// tail and failure stream for reproducibility.
func NewConditioned(inner Store, profile NetworkProfile, seed int64) *Conditioned {
	return &Conditioned{inner: inner, profile: profile, rng: rand.New(rand.NewSource(seed))}
}

// sampleDelay draws one operation's simulated network time from the
// profile: RTT, plus uniform jitter, plus (with probability TailProb) a
// heavy-tail spike, plus bandwidth-proportional transfer time.
func (c *Conditioned) sampleDelay(payloadBytes int) time.Duration {
	d := c.profile.RTT
	c.mu.Lock()
	if c.profile.Jitter > 0 {
		d += time.Duration(c.rng.Int63n(int64(c.profile.Jitter) + 1))
	}
	if c.profile.TailProb > 0 && c.profile.TailSpike > 0 && c.rng.Float64() < c.profile.TailProb {
		d += c.profile.TailSpike
	}
	c.mu.Unlock()
	if c.profile.BandwidthBps > 0 && payloadBytes > 0 {
		d += time.Duration(float64(payloadBytes) / float64(c.profile.BandwidthBps) * float64(time.Second))
	}
	return d
}

// delay sleeps for the operation's simulated network time, honouring ctx.
func (c *Conditioned) delay(ctx context.Context, payloadBytes int) error {
	d := c.sampleDelay(payloadBytes)
	c.ops.Add(1)
	if d <= 0 {
		return ctx.Err()
	}
	// TotalWait records only the wait actually served: when ctx cancels
	// the sleep early, the elapsed portion is booked, not the full d.
	begin := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		c.totalWait.Add(int64(time.Since(begin)))
		return ctx.Err()
	case <-t.C:
		c.totalWait.Add(int64(d))
		return nil
	}
}

// trip draws whether this operation fails and, if so, charges its
// payload-free round trip and returns the ErrTransient failure.
func (c *Conditioned) trip(ctx context.Context, op, key string) error {
	c.mu.Lock()
	fail := c.profile.FailProb > 0 && c.rng.Float64() < c.profile.FailProb
	c.mu.Unlock()
	if !fail {
		return nil
	}
	if err := c.delay(ctx, 0); err != nil {
		return err
	}
	c.failed.Add(1)
	return fmt.Errorf("%w: injected on %s %q", ErrTransient, op, key)
}

// enter charges an operation that carries payloadBytes up front: a
// failure, or the delay before it reaches the inner store.
func (c *Conditioned) enter(ctx context.Context, op, key string, payloadBytes int) error {
	if err := c.trip(ctx, op, key); err != nil {
		return err
	}
	return c.delay(ctx, payloadBytes)
}

// NetStats summarises the traffic a Conditioned store has carried.
type NetStats struct {
	// Ops is the operation count, failed operations included.
	Ops int64
	// Failed counts the operations FailProb failed.
	Failed int64
	// BytesUploaded and BytesDownloaded count payload volume.
	BytesUploaded, BytesDownloaded int64
	// TotalWait is the accumulated simulated network time.
	TotalWait time.Duration
}

// Stats returns a snapshot of the traffic counters.
func (c *Conditioned) Stats() NetStats {
	return NetStats{Ops: c.ops.Load(), Failed: c.failed.Load(), BytesUploaded: c.bytesIn.Load(),
		BytesDownloaded: c.bytesOut.Load(), TotalWait: time.Duration(c.totalWait.Load())}
}

// Put implements Store.
func (c *Conditioned) Put(ctx context.Context, key string, data []byte) error {
	if err := c.enter(ctx, "put", key, len(data)); err != nil {
		return err
	}
	c.bytesIn.Add(int64(len(data)))
	return c.inner.Put(ctx, key, data)
}

// Get implements Store; a miss costs a payload-free round trip.
func (c *Conditioned) Get(ctx context.Context, key string) ([]byte, error) {
	if err := c.trip(ctx, "get", key); err != nil {
		return nil, err
	}
	data, err := c.inner.Get(ctx, key)
	if derr := c.delay(ctx, len(data)); derr != nil {
		return nil, derr
	}
	if err != nil {
		return nil, err
	}
	c.bytesOut.Add(int64(len(data)))
	return data, nil
}

// Delete implements Store.
func (c *Conditioned) Delete(ctx context.Context, key string) error {
	if err := c.enter(ctx, "delete", key, 0); err != nil {
		return err
	}
	return c.inner.Delete(ctx, key)
}

// Stat implements Store.
func (c *Conditioned) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	if err := c.enter(ctx, "stat", key, 0); err != nil {
		return ObjectInfo{}, err
	}
	return c.inner.Stat(ctx, key)
}

// List implements Store.
func (c *Conditioned) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if err := c.enter(ctx, "list", prefix, 0); err != nil {
		return nil, err
	}
	return c.inner.List(ctx, prefix)
}
