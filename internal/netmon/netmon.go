// Package netmon reimplements the NSDF-Plugin's network monitoring role
// (Luettgau et al., HPDC 2023: "Studying Latency and Throughput
// Constraints for Geo-Distributed Data in the National Science Data
// Fabric"): probing latency and throughput between the testbed's entry
// points — "eight diverse locations in the United States, leveraging
// resources like Internet2 and Open Science Grid" — and reporting the
// pairwise constraint matrices of Fig. 2's topology.
//
// The real WAN is a hardware gate, so the links are simulated with a
// physical model: great-circle distance over fibre (≈ 2/3 c) plus router
// overhead for latency, the smaller provider-class uplink derated by path
// efficiency for bandwidth. Each link is a storage.NetworkProfile, and a
// probe is one draw of its Delay, the sampler storage.Conditioned sleeps
// for. Every probe stream is seeded, so runs are reproducible.
package netmon

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"nsdfgo/internal/storage"
)

// Site is one NSDF testbed entry point.
type Site struct {
	// Name is the short site identifier used in reports.
	Name string
	// City locates the site.
	City string
	// Lat and Lon are the site coordinates in degrees.
	Lat, Lon float64
	// Provider is the hosting network ("internet2", "osg", "commercial").
	Provider string
	// UplinkBps is the site's uplink capacity in bits per second.
	UplinkBps float64
}

// Testbed returns the simulated 8-site NSDF testbed of Fig. 2.
func Testbed() []Site {
	return []Site{
		{Name: "sdsc", City: "San Diego, CA", Lat: 32.88, Lon: -117.24, Provider: "internet2", UplinkBps: 100e9},
		{Name: "utah", City: "Salt Lake City, UT", Lat: 40.76, Lon: -111.85, Provider: "internet2", UplinkBps: 100e9},
		{Name: "utk", City: "Knoxville, TN", Lat: 35.95, Lon: -83.93, Provider: "internet2", UplinkBps: 40e9},
		{Name: "umich", City: "Ann Arbor, MI", Lat: 42.28, Lon: -83.74, Provider: "internet2", UplinkBps: 100e9},
		{Name: "mghpcc", City: "Holyoke, MA", Lat: 42.20, Lon: -72.62, Provider: "internet2", UplinkBps: 40e9},
		{Name: "tacc", City: "Austin, TX", Lat: 30.29, Lon: -97.74, Provider: "osg", UplinkBps: 100e9},
		{Name: "ncsa", City: "Urbana, IL", Lat: 40.11, Lon: -88.21, Provider: "osg", UplinkBps: 40e9},
		{Name: "cloud", City: "Ashburn, VA", Lat: 39.04, Lon: -77.49, Provider: "commercial", UplinkBps: 10e9},
	}
}

// The link model.
const (
	fibreKmPerMs   = 200                  // signal distance per millisecond in fibre (≈ 2/3 c)
	routerOverhead = 2 * time.Millisecond // per-path routing and queuing floor
	pathEfficiency = 0.6                  // single-stream TCP share of the bottleneck uplink
	probeBytes     = 1 << 30              // the bulk transfer one throughput probe times
	// timeCompression is how much faster than the testbed a Profile runs:
	// storage.Conditioned sleeps real time.
	timeCompression = 10
)

// Network simulates the links among a set of sites.
type Network struct {
	sites map[string]Site
	names []string
	mu    sync.Mutex
	rng   *rand.Rand
	// degraded maps "a->b" to {rttFactor, bwFactor} multipliers.
	degraded map[string][2]float64
}

// NewNetwork builds a simulated network over sites. The seed fixes all
// probe noise.
func NewNetwork(sites []Site, seed int64) (*Network, error) {
	if len(sites) < 2 {
		return nil, fmt.Errorf("netmon: need at least 2 sites, got %d", len(sites))
	}
	n := &Network{sites: make(map[string]Site, len(sites)), rng: rand.New(rand.NewSource(seed)), degraded: map[string][2]float64{}}
	for _, s := range sites {
		if _, dup := n.sites[s.Name]; dup {
			return nil, fmt.Errorf("netmon: duplicate site %q", s.Name)
		}
		if s.UplinkBps <= 0 {
			return nil, fmt.Errorf("netmon: site %q has no uplink capacity", s.Name)
		}
		n.sites[s.Name] = s
		n.names = append(n.names, s.Name)
	}
	sort.Strings(n.names)
	return n, nil
}

// Sites returns the site names, sorted.
func (n *Network) Sites() []string { return append([]string(nil), n.names...) }

// haversineKm computes the great-circle distance between two sites.
func haversineKm(a, b Site) float64 {
	const earthRadiusKm = 6371
	toRad := func(deg float64) float64 { return deg * math.Pi / 180 }
	dLat := toRad(b.Lat - a.Lat)
	dLon := toRad(b.Lon - a.Lon)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(toRad(a.Lat))*math.Cos(toRad(b.Lat))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// BaseRTT returns the noise-free round-trip time between two sites.
func (n *Network) BaseRTT(a, b string) (time.Duration, error) {
	sa, okA := n.sites[a]
	sb, okB := n.sites[b]
	if !okA || !okB {
		return 0, fmt.Errorf("netmon: unknown site in link %s->%s", a, b)
	}
	if a == b {
		return 100 * time.Microsecond, nil // loopback-ish
	}
	// Fibre paths are ~40% longer than great-circle.
	pathKm := haversineKm(sa, sb) * 1.4
	oneWayMs := pathKm / fibreKmPerMs
	return time.Duration(2*oneWayMs*float64(time.Millisecond)) + routerOverhead, nil
}

// link returns the a->b link: the base RTT scaled by the Degrade RTT
// factor, with up to an eighth of it in jitter, and the smaller uplink
// derated by path efficiency and divided by the Degrade bandwidth factor.
func (n *Network) link(a, b string) (storage.NetworkProfile, error) {
	rtt, err := n.BaseRTT(a, b)
	if err != nil {
		return storage.NetworkProfile{}, err
	}
	n.mu.Lock()
	f, ok := n.degraded[a+"->"+b]
	n.mu.Unlock()
	if !ok {
		f = [2]float64{1, 1}
	}
	rtt = time.Duration(float64(rtt) * f[0])
	bottleneck := math.Min(n.sites[a].UplinkBps, n.sites[b].UplinkBps)
	return storage.NetworkProfile{
		RTT: rtt,
		// At least 1 B/s: 0 would mean an unlimited link.
		BandwidthBps: max(1, int64(bottleneck*pathEfficiency/8/f[1])),
		Jitter:       rtt / 8,
	}, nil
}

// Profile returns the a->b link for a storage.Conditioned store,
// compressed timeCompression× in time: RTT and jitter shorter, bandwidth
// higher.
func (n *Network) Profile(a, b string) (storage.NetworkProfile, error) {
	p, err := n.link(a, b) // the zero profile on error, which compresses to itself
	p.RTT /= timeCompression
	p.Jitter /= timeCompression
	p.BandwidthBps *= timeCompression
	return p, err
}

// ProbeLatency returns one latency sample between two sites: one
// payload-free draw of the link's delay.
func (n *Network) ProbeLatency(a, b string) (time.Duration, error) {
	l, err := n.link(a, b)
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return l.Delay(n.rng, 0), nil
}

// ProbeThroughput returns one throughput sample in bits per second: a
// probeBytes bulk transfer over the link, round trip included.
func (n *Network) ProbeThroughput(a, b string) (float64, error) {
	l, err := n.link(a, b)
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	d := l.Delay(n.rng, probeBytes)
	n.mu.Unlock()
	return 8 * probeBytes / d.Seconds(), nil
}

// PairStats aggregates the probes of one site pair.
type PairStats struct {
	// From and To are the site names.
	From, To string
	// MinRTT, MeanRTT, and MaxRTT summarise latency samples.
	MinRTT, MeanRTT, MaxRTT time.Duration
	// MeanBps and MinBps summarise throughput samples (bits/second).
	MeanBps, MinBps float64
	// Probes is the per-pair sample count.
	Probes int
}

// Report is the outcome of a full-mesh measurement campaign.
type Report struct {
	// Sites lists the probed sites, sorted.
	Sites []string
	// Pairs maps "from->to" to its aggregated stats.
	Pairs map[string]PairStats
}

// Measure probes every ordered site pair `probes` times and aggregates
// the results — the NSDF-Plugin's periodic measurement sweep.
func (n *Network) Measure(probes int) (*Report, error) {
	if probes < 1 {
		return nil, fmt.Errorf("netmon: need at least 1 probe, got %d", probes)
	}
	rep := &Report{Sites: n.Sites(), Pairs: make(map[string]PairStats)}
	for _, from := range rep.Sites {
		for _, to := range rep.Sites {
			if from == to {
				continue
			}
			ps := PairStats{From: from, To: to, MinRTT: time.Duration(math.MaxInt64), MinBps: math.Inf(1), Probes: probes}
			var rttSum time.Duration
			var bpsSum float64
			for p := 0; p < probes; p++ {
				rtt, err := n.ProbeLatency(from, to)
				if err != nil {
					return nil, err
				}
				bps, err := n.ProbeThroughput(from, to)
				if err != nil {
					return nil, err
				}
				rttSum += rtt
				bpsSum += bps
				ps.MinRTT, ps.MaxRTT, ps.MinBps = min(ps.MinRTT, rtt), max(ps.MaxRTT, rtt), min(ps.MinBps, bps)
			}
			ps.MeanRTT = rttSum / time.Duration(probes)
			ps.MeanBps = bpsSum / float64(probes)
			rep.Pairs[from+"->"+to] = ps
		}
	}
	return rep, nil
}

// Constraint flags a pair violating a requirement.
type Constraint struct {
	// Pair is "from->to".
	Pair string
	// Reason describes the violated requirement.
	Reason string
}

// Constraints returns the pairs whose mean RTT exceeds maxRTT or whose
// mean throughput falls below minBps — the "throughput and latency
// constraints" NSDF-Plugin identifies.
func (r *Report) Constraints(maxRTT time.Duration, minBps float64) []Constraint {
	var out []Constraint
	keys := make([]string, 0, len(r.Pairs))
	for k := range r.Pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ps := r.Pairs[k]
		if maxRTT > 0 && ps.MeanRTT > maxRTT {
			out = append(out, Constraint{Pair: k, Reason: fmt.Sprintf("mean RTT %.1fms exceeds %.1fms", msOf(ps.MeanRTT), msOf(maxRTT))})
		}
		if minBps > 0 && ps.MeanBps < minBps {
			out = append(out, Constraint{Pair: k, Reason: fmt.Sprintf("mean throughput %.2fGbps below %.2fGbps", ps.MeanBps/1e9, minBps/1e9)})
		}
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// LatencyMatrix renders the pairwise mean RTTs as a fixed-width table.
func (r *Report) LatencyMatrix() string {
	return r.matrix("mean RTT (ms)", func(ps PairStats) string {
		return fmt.Sprintf("%7.1f", msOf(ps.MeanRTT))
	})
}

// ThroughputMatrix renders the pairwise mean throughput in Gbps.
func (r *Report) ThroughputMatrix() string {
	return r.matrix("mean throughput (Gbps)", func(ps PairStats) string {
		return fmt.Sprintf("%7.2f", ps.MeanBps/1e9)
	})
}

func (r *Report) matrix(title string, cell func(PairStats) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%8s", title, "")
	for _, to := range r.Sites {
		fmt.Fprintf(&sb, " %7s", to)
	}
	sb.WriteByte('\n')
	for _, from := range r.Sites {
		fmt.Fprintf(&sb, "%8s", from)
		for _, to := range r.Sites {
			if from == to {
				fmt.Fprintf(&sb, " %7s", "-")
				continue
			}
			sb.WriteString(" " + cell(r.Pairs[from+"->"+to]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
