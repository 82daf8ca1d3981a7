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
// overhead for latency, provider-class uplink capacity with lognormal-ish
// congestion noise for throughput. Every probe stream is seeded, so runs
// are reproducible.
package netmon

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
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

// Network simulates the links among a set of sites.
type Network struct {
	sites  map[string]Site
	names  []string
	mu     sync.Mutex
	rng    *rand.Rand
	params LinkParams
	// degraded maps "a->b" to {rttFactor, bwFactor} multipliers.
	degraded map[string][2]float64
}

// LinkParams tunes the physical link model.
type LinkParams struct {
	// FibreKmPerMs is signal distance per millisecond (~200 km/ms in fibre).
	FibreKmPerMs float64
	// RouterOverhead is fixed per-path latency (routing, queuing floor).
	RouterOverhead time.Duration
	// JitterFrac is the coefficient of variation of latency noise.
	JitterFrac float64
	// CongestionFrac is the mean fractional throughput loss to congestion.
	CongestionFrac float64
	// PathEfficiency scales single-stream TCP throughput relative to the
	// bottleneck uplink (protocol + RTT effects).
	PathEfficiency float64
}

// DefaultLinkParams returns the model used by the Fig. 2 experiments.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		FibreKmPerMs:   200,
		RouterOverhead: 2 * time.Millisecond,
		JitterFrac:     0.08,
		CongestionFrac: 0.25,
		PathEfficiency: 0.6,
	}
}

// NewNetwork builds a simulated network over sites with the default link
// model. The seed fixes all probe noise.
func NewNetwork(sites []Site, seed int64) (*Network, error) {
	return NewNetworkWithParams(sites, seed, DefaultLinkParams())
}

// NewNetworkWithParams is NewNetwork with an explicit link model.
func NewNetworkWithParams(sites []Site, seed int64, params LinkParams) (*Network, error) {
	if len(sites) < 2 {
		return nil, fmt.Errorf("netmon: need at least 2 sites, got %d", len(sites))
	}
	n := &Network{sites: make(map[string]Site, len(sites)), rng: rand.New(rand.NewSource(seed)), params: params}
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

// Site returns a site by name.
func (n *Network) Site(name string) (Site, error) {
	s, ok := n.sites[name]
	if !ok {
		return Site{}, fmt.Errorf("netmon: unknown site %q", name)
	}
	return s, nil
}

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
	sa, err := n.Site(a)
	if err != nil {
		return 0, err
	}
	sb, err := n.Site(b)
	if err != nil {
		return 0, err
	}
	if a == b {
		return 100 * time.Microsecond, nil // loopback-ish
	}
	// Fibre paths are ~40% longer than great-circle.
	pathKm := haversineKm(sa, sb) * 1.4
	oneWayMs := pathKm / n.params.FibreKmPerMs
	return time.Duration(2*oneWayMs*float64(time.Millisecond)) + n.params.RouterOverhead, nil
}

// ProbeLatency returns one latency sample between two sites: the base RTT
// plus non-negative jitter.
func (n *Network) ProbeLatency(a, b string) (time.Duration, error) {
	base, err := n.BaseRTT(a, b)
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	noise := math.Abs(n.rng.NormFloat64()) * n.params.JitterFrac
	n.mu.Unlock()
	rttFactor, _ := n.degradation(a, b)
	sample := base + time.Duration(noise*float64(base))
	return time.Duration(float64(sample) * rttFactor), nil
}

// ProbeThroughput returns one throughput sample in bits per second for a
// bulk transfer between two sites. The bottleneck is the smaller uplink,
// derated by path efficiency and congestion noise.
func (n *Network) ProbeThroughput(a, b string) (float64, error) {
	sa, err := n.Site(a)
	if err != nil {
		return 0, err
	}
	sb, err := n.Site(b)
	if err != nil {
		return 0, err
	}
	bottleneck := math.Min(sa.UplinkBps, sb.UplinkBps)
	if a == b {
		return bottleneck, nil
	}
	n.mu.Lock()
	congestion := math.Abs(n.rng.NormFloat64()) * n.params.CongestionFrac
	n.mu.Unlock()
	if congestion > 0.9 {
		congestion = 0.9
	}
	_, bwFactor := n.degradation(a, b)
	return bottleneck * n.params.PathEfficiency * (1 - congestion) / bwFactor, nil
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
				if rtt < ps.MinRTT {
					ps.MinRTT = rtt
				}
				if rtt > ps.MaxRTT {
					ps.MaxRTT = rtt
				}
				if bps < ps.MinBps {
					ps.MinBps = bps
				}
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
