// Command nsdf-netmon runs the NSDF-Plugin's measurement role over the
// simulated 8-site testbed: full-mesh probe sweeps, the latency and
// throughput matrices of Fig. 2, constraint scans, and a continuous
// monitoring mode that flags degrading links (optionally with an injected
// degradation to demonstrate detection).
//
// Usage:
//
//	nsdf-netmon -probes 20
//	nsdf-netmon -monitor 5 -degrade utk:umich:4:1
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"nsdfgo/internal/netmon"
	"nsdfgo/internal/serverkit"
	"nsdfgo/internal/telemetry"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-netmon:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	opts := serverkit.Options{Service: "netmon", NodeName: "netmon"}
	opts.ProcessFlags(fs)
	probes := fs.Int("probes", 20, "probes per site pair per sweep")
	seed := fs.Int64("seed", 20240624, "probe noise seed")
	maxRTT := fs.Duration("max-rtt", 60*time.Millisecond, "constraint: maximum acceptable mean RTT")
	minGbps := fs.Float64("min-gbps", 15, "constraint: minimum acceptable mean throughput (Gbps)")
	monitor := fs.Int("monitor", 0, "run N monitoring sweeps and report degradation alerts")
	degrade := fs.String("degrade", "", "inject degradation before the final sweep: from:to:rttFactor:bwFactor")
	metricsAddr := fs.String("metrics-addr", "", "serve a /metrics telemetry endpoint on this address while monitoring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	k, err := serverkit.Start(opts)
	if err != nil {
		return err
	}
	network, err := netmon.NewNetwork(netmon.Testbed(), *seed)
	if err != nil {
		return err
	}

	if *monitor > 0 {
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		if *metricsAddr != "" {
			mux := k.DebugMux()
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
				telemetry.WriteHealth(w, "netmon")
			})
			// The telemetry listener is a side server: it does not block
			// the monitor loop and its failure is a logged error, not an
			// exit. Told to stop (SIGINT/SIGTERM: connections drained,
			// flight recorder dumped), it stops the loop with it.
			go func() {
				ln, err := net.Listen("tcp", *metricsAddr)
				if err == nil {
					err = k.Serve(ctx, ln, mux)
				}
				if err != nil {
					k.Logger.Error("metrics server failed", slog.String("error", err.Error()))
					return
				}
				stop()
			}()
		}
		return runMonitor(ctx, network, k, *monitor, *probes, *degrade)
	}

	rep, err := network.Measure(*probes)
	if err != nil {
		return err
	}
	fmt.Print(rep.LatencyMatrix())
	fmt.Println()
	fmt.Print(rep.ThroughputMatrix())
	cons := rep.Constraints(*maxRTT, *minGbps*1e9)
	fmt.Printf("\nconstraints (RTT > %v or throughput < %.1f Gbps): %d pairs\n", *maxRTT, *minGbps, len(cons))
	for _, c := range cons {
		fmt.Printf("  %-16s %s\n", c.Pair, c.Reason)
	}
	return nil
}

func runMonitor(ctx context.Context, net *netmon.Network, k *serverkit.Kit, sweeps, probes int, degrade string) error {
	mon, err := netmon.NewMonitor(net, sweeps+1)
	if err != nil {
		return err
	}
	mon.SetTelemetry(k.Registry)
	mon.SetFlight(k.Flight)
	for i := 0; i < sweeps; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := mon.Tick(probes); err != nil {
			return err
		}
		fmt.Printf("sweep %d/%d complete  %s\n", i+1, sweeps, monitorSummary(k.Registry))
	}
	if degrade != "" {
		parts := strings.Split(degrade, ":")
		if len(parts) != 4 {
			return fmt.Errorf("bad -degrade %q (want from:to:rttFactor:bwFactor)", degrade)
		}
		rttF, err1 := strconv.ParseFloat(parts[2], 64)
		bwF, err2 := strconv.ParseFloat(parts[3], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad -degrade factors in %q", degrade)
		}
		if err := net.Degrade(parts[0], parts[1], rttF, bwF); err != nil {
			return err
		}
		fmt.Printf("injected degradation on %s->%s (rtt x%g, bw /%g)\n", parts[0], parts[1], rttF, bwF)
	}
	if _, err := mon.Tick(probes); err != nil {
		return err
	}
	alerts, err := mon.Alerts(2, 2)
	if err != nil {
		return err
	}
	if len(alerts) == 0 {
		fmt.Println("no degradation detected")
		return nil
	}
	fmt.Printf("%d degradation alert(s):\n", len(alerts))
	for _, a := range alerts {
		fmt.Printf("  %-16s %s\n", a.Pair, a.Reason)
	}
	k.Flight.Dump(k.Logger)
	fmt.Println(monitorSummary(k.Registry))
	return nil
}

// monitorSummary condenses the monitoring telemetry into one line.
func monitorSummary(reg *telemetry.Registry) string {
	line := fmt.Sprintf("[metrics] sweeps=%.0f probes=%.0f alerts=%.0f",
		reg.SumFamily("nsdf_netmon_sweeps_total"),
		reg.SumFamily("nsdf_netmon_probes_total"),
		reg.SumFamily("nsdf_netmon_alerts_total"))
	if p50, p95, p99, ok := reg.FamilyQuantiles("nsdf_netmon_rtt_seconds"); ok {
		line += fmt.Sprintf(" rtt_p50=%.1fms p95=%.1fms p99=%.1fms", p50*1e3, p95*1e3, p99*1e3)
	}
	return line
}
