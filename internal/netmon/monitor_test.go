package netmon

import (
	"math"
	"strings"
	"testing"

	"nsdfgo/internal/telemetry"
)

func TestDegradeValidation(t *testing.T) {
	n := testNetwork(t)
	if err := n.Degrade("nowhere", "sdsc", 2, 1); err == nil {
		t.Error("unknown site accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, f := range [][2]float64{{0, 1}, {1, -2}, {nan, 1}, {1, nan}, {inf, 1}, {1, inf}, {-inf, 1}} {
		if err := n.Degrade("sdsc", "utah", f[0], f[1]); err == nil {
			t.Errorf("factors %v accepted", f)
		}
	}
	if err := n.Degrade("sdsc", "utah", 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestDegradeAffectsProbes(t *testing.T) {
	n := testNetwork(t)
	base, _ := n.BaseRTT("sdsc", "utah")
	if err := n.Degrade("sdsc", "utah", 3, 4); err != nil {
		t.Fatal(err)
	}
	rtt, err := n.ProbeLatency("sdsc", "utah")
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 3*base {
		t.Errorf("degraded RTT %v below 3x base %v", rtt, base)
	}
	bps, _ := n.ProbeThroughput("sdsc", "utah")
	clean, _ := n.ProbeThroughput("utah", "sdsc") // reverse direction untouched
	if bps*2 > clean {
		t.Errorf("degraded throughput %v not clearly below clean %v", bps, clean)
	}
	// Restore.
	if err := n.Degrade("sdsc", "utah", 1, 1); err != nil {
		t.Fatal(err)
	}
	rtt, _ = n.ProbeLatency("sdsc", "utah")
	if rtt > 2*base {
		t.Errorf("restored RTT %v still degraded", rtt)
	}
}

func TestMonitorWindow(t *testing.T) {
	n := testNetwork(t)
	if _, err := NewMonitor(n, 1); err == nil {
		t.Error("window 1 accepted")
	}
	m, err := NewMonitor(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Tick(3); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.history) != 3 {
		t.Errorf("window holds %d sweeps, want 3", len(m.history))
	}
}

func TestMonitorAlertsRequireBaseline(t *testing.T) {
	n := testNetwork(t)
	m, _ := NewMonitor(n, 4)
	if _, err := m.Alerts(2, 2); err == nil {
		t.Error("alerts with no sweeps accepted")
	}
	m.Tick(3)
	if _, err := m.Alerts(2, 2); err == nil {
		t.Error("alerts with one sweep accepted")
	}
	m.Tick(3)
	if _, err := m.Alerts(1, 2); err == nil {
		t.Error("factor <= 1 accepted")
	}
}

func TestMonitorDetectsDegradation(t *testing.T) {
	n := testNetwork(t)
	m, _ := NewMonitor(n, 6)
	reg := telemetry.NewRegistry()
	m.SetTelemetry(reg)
	// Healthy baseline sweeps.
	for i := 0; i < 3; i++ {
		if _, err := m.Tick(5); err != nil {
			t.Fatal(err)
		}
	}
	// No alerts while healthy.
	alerts, err := m.Alerts(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("false alerts on healthy network: %+v", alerts)
	}
	// Degrade one link hard, sweep again.
	if err := n.Degrade("utk", "umich", 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tick(5); err != nil {
		t.Fatal(err)
	}
	alerts, err = m.Alerts(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alerts {
		if a.Pair == "utk->umich" {
			found = true
			if !strings.Contains(a.Reason, "RTT") {
				t.Errorf("alert reason %q", a.Reason)
			}
			if a.LatestRTT < a.BaselineRTT*3 {
				t.Errorf("alert RTTs %v vs %v", a.LatestRTT, a.BaselineRTT)
			}
		}
		if a.Pair == "umich->utk" {
			t.Error("reverse direction falsely flagged")
		}
	}
	if !found {
		t.Fatalf("degraded link not flagged; alerts: %+v", alerts)
	}
	// 4 sweeps of 5 probes over the 8 sites' 56 directed pairs, one RTT
	// observation per pair and sweep.
	for family, want := range map[string]float64{
		"nsdf_netmon_sweeps_total": 4,
		"nsdf_netmon_probes_total": 4 * 5 * 56,
		"nsdf_netmon_rtt_seconds":  4 * 56,
		"nsdf_netmon_alerts_total": float64(len(alerts)),
	} {
		if got := reg.SumFamily(family); got != want {
			t.Errorf("%s = %v, want %v", family, got, want)
		}
	}
}

func TestMonitorDetectsThroughputCollapse(t *testing.T) {
	n := testNetwork(t)
	m, _ := NewMonitor(n, 6)
	for i := 0; i < 3; i++ {
		m.Tick(5)
	}
	if err := n.Degrade("sdsc", "tacc", 1, 10); err != nil {
		t.Fatal(err)
	}
	m.Tick(5)
	alerts, err := m.Alerts(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alerts {
		if a.Pair == "sdsc->tacc" && strings.Contains(a.Reason, "throughput") {
			found = true
		}
	}
	if !found {
		t.Fatalf("throughput collapse not flagged: %+v", alerts)
	}
}
