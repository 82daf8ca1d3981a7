package netmon

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nsdfgo/internal/telemetry"
	"nsdfgo/internal/telemetry/flight"
)

// Degrade applies multipliers to one directed link, simulating congestion
// or a failing path: the link's RTT is multiplied by rttFactor and its
// bandwidth divided by bwFactor, for probes and Profile alike. Both must
// be positive and finite; factors of 1 restore the link.
func (n *Network) Degrade(a, b string, rttFactor, bwFactor float64) error {
	if _, err := n.BaseRTT(a, b); err != nil { // rejects an unknown site
		return err
	}
	// NaN fails the comparisons.
	if !(rttFactor > 0 && bwFactor > 0) || math.IsInf(rttFactor, 1) || math.IsInf(bwFactor, 1) {
		return fmt.Errorf("netmon: degradation factors must be positive and finite, got %g and %g", rttFactor, bwFactor)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.degraded[a+"->"+b] = [2]float64{rttFactor, bwFactor}
	return nil
}

// Monitor runs the NSDF-Plugin's continuous measurement loop: periodic
// full-mesh sweeps are retained in a sliding window, and the latest sweep
// is compared against the historical baseline to flag degrading links.
type Monitor struct {
	net    *Network
	window int
	// history holds up to window reports, oldest first.
	history []*Report

	sweeps *telemetry.Counter
	probes *telemetry.Counter
	alerts *telemetry.Counter
	rtt    *telemetry.Histogram
	fl     *flight.Recorder
}

// NewMonitor wraps a network with a sliding window of `window` sweeps
// (minimum 2: baseline plus latest).
func NewMonitor(net *Network, window int) (*Monitor, error) {
	if window < 2 {
		return nil, fmt.Errorf("netmon: monitor window %d; need at least 2", window)
	}
	return &Monitor{net: net, window: window}, nil
}

// SetTelemetry attaches a metrics registry. Each sweep then records:
//
//	nsdf_netmon_sweeps_total   completed sweeps
//	nsdf_netmon_probes_total   individual probes sent
//	nsdf_netmon_alerts_total   degradation alerts raised
//	nsdf_netmon_rtt_seconds    per-pair mean RTT distribution
func (m *Monitor) SetTelemetry(reg *telemetry.Registry) {
	m.sweeps = reg.Counter("nsdf_netmon_sweeps_total")
	m.probes = reg.Counter("nsdf_netmon_probes_total")
	m.alerts = reg.Counter("nsdf_netmon_alerts_total")
	m.rtt = reg.Histogram("nsdf_netmon_rtt_seconds")
}

// SetFlight attaches a flight recorder: every alert Alerts raises is
// also booked as a KindAlert event.
func (m *Monitor) SetFlight(fl *flight.Recorder) { m.fl = fl }

// Tick performs one measurement sweep and appends it to the window.
func (m *Monitor) Tick(probes int) (*Report, error) {
	rep, err := m.net.Measure(probes)
	if err != nil {
		return nil, err
	}
	m.history = append(m.history, rep)
	if len(m.history) > m.window {
		m.history = m.history[len(m.history)-m.window:]
	}
	if m.sweeps != nil {
		m.sweeps.Inc()
		for _, ps := range rep.Pairs {
			m.probes.Add(int64(ps.Probes))
			m.rtt.Observe(ps.MeanRTT.Seconds())
		}
	}
	return rep, nil
}

// Alert flags one degrading directed link.
type Alert struct {
	// Pair is "from->to".
	Pair string
	// Reason describes the regression against the baseline.
	Reason string
	// BaselineRTT and LatestRTT document the latency change.
	BaselineRTT, LatestRTT time.Duration
	// BaselineBps and LatestBps document the throughput change.
	BaselineBps, LatestBps float64
}

// Alerts compares the latest sweep against the mean of all earlier sweeps
// and flags pairs whose mean RTT grew by more than rttFactor or whose
// throughput fell below 1/bwFactor of baseline. It requires at least two
// sweeps.
func (m *Monitor) Alerts(rttFactor, bwFactor float64) ([]Alert, error) {
	if len(m.history) < 2 {
		return nil, fmt.Errorf("netmon: %d sweeps in window; need at least 2 for a baseline", len(m.history))
	}
	if rttFactor <= 1 || bwFactor <= 1 {
		return nil, fmt.Errorf("netmon: alert factors must exceed 1")
	}
	latest := m.history[len(m.history)-1]
	baselineReports := m.history[:len(m.history)-1]

	var out []Alert
	keys := make([]string, 0, len(latest.Pairs))
	for k := range latest.Pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cur := latest.Pairs[k]
		var rttSum time.Duration
		var bpsSum float64
		n := 0
		for _, rep := range baselineReports {
			if ps, ok := rep.Pairs[k]; ok {
				rttSum += ps.MeanRTT
				bpsSum += ps.MeanBps
				n++
			}
		}
		if n == 0 {
			continue
		}
		baseRTT := rttSum / time.Duration(n)
		baseBps := bpsSum / float64(n)
		alert := Alert{Pair: k, BaselineRTT: baseRTT, LatestRTT: cur.MeanRTT, BaselineBps: baseBps, LatestBps: cur.MeanBps}
		switch {
		case float64(cur.MeanRTT) > float64(baseRTT)*rttFactor:
			alert.Reason = fmt.Sprintf("RTT %.1fms is %.1fx baseline %.1fms",
				msOf(cur.MeanRTT), float64(cur.MeanRTT)/float64(baseRTT), msOf(baseRTT))
			out = append(out, alert)
		case cur.MeanBps*bwFactor < baseBps:
			alert.Reason = fmt.Sprintf("throughput %.2fGbps fell to %.0f%% of baseline %.2fGbps",
				cur.MeanBps/1e9, 100*cur.MeanBps/baseBps, baseBps/1e9)
			out = append(out, alert)
		}
	}
	if m.alerts != nil {
		m.alerts.Add(int64(len(out)))
	}
	for _, a := range out {
		m.fl.Record(flight.KindAlert, "", "link %s degraded: %s", a.Pair, a.Reason)
	}
	return out, nil
}
