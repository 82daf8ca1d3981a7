package netmon

import (
	"strings"
	"testing"
	"time"
)

func testNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(Testbed(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTestbedHasEightSites(t *testing.T) {
	sites := Testbed()
	if len(sites) != 8 {
		t.Fatalf("testbed has %d sites, want 8 (paper §III-B)", len(sites))
	}
	seen := map[string]bool{}
	for _, s := range sites {
		if seen[s.Name] {
			t.Errorf("duplicate site %s", s.Name)
		}
		seen[s.Name] = true
		if s.UplinkBps <= 0 {
			t.Errorf("site %s has no uplink", s.Name)
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, 1); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := NewNetwork([]Site{{Name: "only", UplinkBps: 1}}, 1); err == nil {
		t.Error("single-site network accepted")
	}
	dup := []Site{{Name: "a", UplinkBps: 1}, {Name: "a", UplinkBps: 1}}
	if _, err := NewNetwork(dup, 1); err == nil {
		t.Error("duplicate sites accepted")
	}
	noUplink := []Site{{Name: "a", UplinkBps: 1}, {Name: "b"}}
	if _, err := NewNetwork(noUplink, 1); err == nil {
		t.Error("zero uplink accepted")
	}
}

func TestBaseRTTSymmetricAndPositive(t *testing.T) {
	n := testNetwork(t)
	ab, err := n.BaseRTT("sdsc", "mghpcc")
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := n.BaseRTT("mghpcc", "sdsc")
	if ab != ba {
		t.Errorf("asymmetric base RTT: %v vs %v", ab, ba)
	}
	if ab <= 0 {
		t.Errorf("RTT %v", ab)
	}
}

func TestBaseRTTScalesWithDistance(t *testing.T) {
	n := testNetwork(t)
	// San Diego <-> Holyoke spans the continent; Utah <-> San Diego does not.
	far, _ := n.BaseRTT("sdsc", "mghpcc")
	near, _ := n.BaseRTT("sdsc", "utah")
	if far <= near {
		t.Errorf("coast-to-coast RTT %v not above regional %v", far, near)
	}
	// Plausible magnitudes: cross-country fibre RTT is tens of ms.
	if far < 20*time.Millisecond || far > 120*time.Millisecond {
		t.Errorf("cross-country RTT %v outside plausible range", far)
	}
}

func TestProbeLatencyJitterNonNegative(t *testing.T) {
	n := testNetwork(t)
	base, _ := n.BaseRTT("utk", "umich")
	for i := 0; i < 100; i++ {
		got, err := n.ProbeLatency("utk", "umich")
		if err != nil {
			t.Fatal(err)
		}
		if got < base {
			t.Fatalf("probe %v below base %v", got, base)
		}
		if got > 2*base {
			t.Fatalf("probe %v implausibly above base %v", got, base)
		}
	}
}

func TestProbeThroughputBottleneck(t *testing.T) {
	n := testNetwork(t)
	// cloud has a 10 Gbps uplink: any pair with cloud is capped by it.
	for i := 0; i < 50; i++ {
		bps, err := n.ProbeThroughput("sdsc", "cloud")
		if err != nil {
			t.Fatal(err)
		}
		if bps > 10e9 {
			t.Fatalf("throughput %v exceeds bottleneck uplink", bps)
		}
		if bps <= 0 {
			t.Fatalf("throughput %v", bps)
		}
	}
}

func TestProbesDeterministicBySeed(t *testing.T) {
	n1, _ := NewNetwork(Testbed(), 7)
	n2, _ := NewNetwork(Testbed(), 7)
	for i := 0; i < 10; i++ {
		a, _ := n1.ProbeLatency("sdsc", "utk")
		b, _ := n2.ProbeLatency("sdsc", "utk")
		if a != b {
			t.Fatalf("same seed diverged at probe %d: %v vs %v", i, a, b)
		}
	}
	n3, _ := NewNetwork(Testbed(), 8)
	diverged := false
	for i := 0; i < 10; i++ {
		a, _ := n1.ProbeLatency("sdsc", "utk")
		c, _ := n3.ProbeLatency("sdsc", "utk")
		if a != c {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical probe streams")
	}
}

func TestUnknownSiteErrors(t *testing.T) {
	n := testNetwork(t)
	if _, err := n.ProbeLatency("sdsc", "nowhere"); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, err := n.ProbeThroughput("nowhere", "sdsc"); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestMeasureFullMesh(t *testing.T) {
	n := testNetwork(t)
	rep, err := n.Measure(5)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := 8 * 7
	if len(rep.Pairs) != wantPairs {
		t.Fatalf("measured %d pairs, want %d", len(rep.Pairs), wantPairs)
	}
	for k, ps := range rep.Pairs {
		if ps.Probes != 5 {
			t.Errorf("%s: %d probes", k, ps.Probes)
		}
		if ps.MinRTT > ps.MeanRTT || ps.MeanRTT > ps.MaxRTT {
			t.Errorf("%s: RTT ordering broken: %v/%v/%v", k, ps.MinRTT, ps.MeanRTT, ps.MaxRTT)
		}
		if ps.MinBps > ps.MeanBps {
			t.Errorf("%s: Bps ordering broken", k)
		}
	}
}

func TestMeasureValidation(t *testing.T) {
	n := testNetwork(t)
	if _, err := n.Measure(0); err == nil {
		t.Error("zero probes accepted")
	}
}

func TestConstraints(t *testing.T) {
	n := testNetwork(t)
	rep, err := n.Measure(3)
	if err != nil {
		t.Fatal(err)
	}
	// Impossible requirements flag everything.
	all := rep.Constraints(time.Microsecond, 1e15)
	if len(all) != 2*8*7 {
		t.Errorf("impossible requirements flagged %d, want %d", len(all), 2*8*7)
	}
	// Trivial requirements flag nothing.
	if c := rep.Constraints(time.Hour, 1); len(c) != 0 {
		t.Errorf("trivial requirements flagged %d", len(c))
	}
	// The 10 Gbps cloud site must appear when requiring 20 Gbps.
	cons := rep.Constraints(0, 20e9)
	foundCloud := false
	for _, c := range cons {
		if strings.Contains(c.Pair, "cloud") {
			foundCloud = true
		}
	}
	if !foundCloud {
		t.Error("cloud uplink constraint not detected")
	}
}

func TestMatricesRender(t *testing.T) {
	n := testNetwork(t)
	rep, _ := n.Measure(2)
	lat := rep.LatencyMatrix()
	thr := rep.ThroughputMatrix()
	for _, site := range rep.Sites {
		if !strings.Contains(lat, site) {
			t.Errorf("latency matrix missing %s", site)
		}
		if !strings.Contains(thr, site) {
			t.Errorf("throughput matrix missing %s", site)
		}
	}
	if len(strings.Split(strings.TrimSpace(lat), "\n")) != 10 { // title + header + 8 rows
		t.Errorf("latency matrix:\n%s", lat)
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// SLC to San Diego is ~990 km.
	var slc, sd Site
	for _, s := range Testbed() {
		if s.Name == "utah" {
			slc = s
		}
		if s.Name == "sdsc" {
			sd = s
		}
	}
	d := haversineKm(slc, sd)
	if d < 900 || d > 1100 {
		t.Errorf("SLC-SD distance %v km, want ~990", d)
	}
}

func BenchmarkMeasure8Sites(b *testing.B) {
	n, _ := NewNetwork(Testbed(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Measure(10); err != nil {
			b.Fatal(err)
		}
	}
}
