package storage

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// NetworkProfile models a wide-area link between the client and a remote
// storage service: one round trip of latency per operation plus transfer
// time proportional to payload size. The NSDF-Plugin measurements
// (Luettgau et al., HPDC 2023) motivate the default profiles.
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
// NetworkProfile so local experiments exhibit remote-access behaviour.
type Conditioned struct {
	inner   Store
	profile NetworkProfile

	mu  sync.Mutex
	rng *rand.Rand

	statsMu   sync.Mutex
	ops       int64
	bytesIn   int64
	bytesOut  int64
	totalWait time.Duration
}

// NewConditioned wraps inner with the given profile. seed fixes the jitter
// stream for reproducibility.
func NewConditioned(inner Store, profile NetworkProfile, seed int64) *Conditioned {
	return &Conditioned{inner: inner, profile: profile, rng: rand.New(rand.NewSource(seed))}
}

// sampleDelay draws one operation's simulated network time from the
// profile: RTT, plus uniform jitter, plus (with probability TailProb) a
// heavy-tail spike, plus bandwidth-proportional transfer time.
func (c *Conditioned) sampleDelay(payloadBytes int) time.Duration {
	d := c.profile.RTT
	if c.profile.Jitter > 0 || (c.profile.TailProb > 0 && c.profile.TailSpike > 0) {
		c.mu.Lock()
		if c.profile.Jitter > 0 {
			d += time.Duration(c.rng.Int63n(int64(c.profile.Jitter) + 1))
		}
		if c.profile.TailProb > 0 && c.profile.TailSpike > 0 && c.rng.Float64() < c.profile.TailProb {
			d += c.profile.TailSpike
		}
		c.mu.Unlock()
	}
	if c.profile.BandwidthBps > 0 && payloadBytes > 0 {
		d += time.Duration(float64(payloadBytes) / float64(c.profile.BandwidthBps) * float64(time.Second))
	}
	return d
}

// delay sleeps for the operation's simulated network time, honouring ctx.
func (c *Conditioned) delay(ctx context.Context, payloadBytes int) error {
	d := c.sampleDelay(payloadBytes)
	c.statsMu.Lock()
	c.ops++
	c.statsMu.Unlock()
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
		c.statsMu.Lock()
		c.totalWait += time.Since(begin)
		c.statsMu.Unlock()
		return ctx.Err()
	case <-t.C:
		c.statsMu.Lock()
		c.totalWait += d
		c.statsMu.Unlock()
		return nil
	}
}

// NetStats summarises the traffic a Conditioned store has carried.
type NetStats struct {
	// Ops is the operation count.
	Ops int64
	// BytesUploaded and BytesDownloaded count payload volume.
	BytesUploaded, BytesDownloaded int64
	// TotalWait is the accumulated simulated network time.
	TotalWait time.Duration
}

// Stats returns a snapshot of the traffic counters.
func (c *Conditioned) Stats() NetStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return NetStats{Ops: c.ops, BytesUploaded: c.bytesIn, BytesDownloaded: c.bytesOut, TotalWait: c.totalWait}
}

// Put implements Store.
func (c *Conditioned) Put(ctx context.Context, key string, data []byte) error {
	if err := c.delay(ctx, len(data)); err != nil {
		return err
	}
	c.statsMu.Lock()
	c.bytesIn += int64(len(data))
	c.statsMu.Unlock()
	return c.inner.Put(ctx, key, data)
}

// Get implements Store.
func (c *Conditioned) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := c.inner.Get(ctx, key)
	if err != nil {
		// Even a miss costs a round trip.
		if derr := c.delay(ctx, 0); derr != nil {
			return nil, derr
		}
		return nil, err
	}
	if err := c.delay(ctx, len(data)); err != nil {
		return nil, err
	}
	c.statsMu.Lock()
	c.bytesOut += int64(len(data))
	c.statsMu.Unlock()
	return data, nil
}

// Delete implements Store.
func (c *Conditioned) Delete(ctx context.Context, key string) error {
	if err := c.delay(ctx, 0); err != nil {
		return err
	}
	return c.inner.Delete(ctx, key)
}

// Stat implements Store.
func (c *Conditioned) Stat(ctx context.Context, key string) (ObjectInfo, error) {
	if err := c.delay(ctx, 0); err != nil {
		return ObjectInfo{}, err
	}
	return c.inner.Stat(ctx, key)
}

// List implements Store.
func (c *Conditioned) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	if err := c.delay(ctx, 0); err != nil {
		return nil, err
	}
	return c.inner.List(ctx, prefix)
}
