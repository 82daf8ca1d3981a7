// Command nsdf-loadgen replays a training-cohort workload against an
// NSDF serving endpoint (nsdf-dashboard, or anything speaking its API):
// zipfian dataset popularity, mixed box sizes, progressive refinement
// streams, and configurable burst phases, with per-request latency
// capture. The JSON report (per-phase p50/p95/p99, goodput, shed and
// error counts) is the raw material for the serving-under-load
// benchmarks.
//
// Usage:
//
//	nsdf-loadgen -url http://localhost:8080 -rate 200 -duration 30s
//	nsdf-loadgen -url http://localhost:8080 -rate 100 \
//	    -phases warm:10s:1,burst:20s:4,cool:10s:1 -tenants 8 -out run.json
//	nsdf-loadgen -url http://localhost:8080 -closed -concurrency 32
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nsdfgo/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nsdf-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	url := flag.String("url", "http://localhost:8080", "target server base URL")
	rate := flag.Float64("rate", 100, "offered stream arrival rate per second (open loop)")
	closed := flag.Bool("closed", false, "closed loop: -concurrency workers issue streams back to back, ignoring -rate")
	concurrency := flag.Int("concurrency", 16, "worker pool size (closed loop) / max client in-flight (open loop)")
	duration := flag.Duration("duration", 10*time.Second, "run length when -phases is empty")
	phasesSpec := flag.String("phases", "", "comma-separated phases as name:duration:rate-multiplier, e.g. warm:10s:1,burst:20s:4,cool:10s:1")
	zipfS := flag.Float64("zipf-s", 1.2, "zipf skew of dataset popularity (> 1; larger = more skewed)")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	tenants := flag.Int("tenants", 0, "spread streams across this many synthetic tenants via X-NSDF-Tenant (0 sends no header)")
	progressive := flag.Float64("progressive", 0.3, "fraction of streams issued as progressive coarse-to-fine refinements [0,1]")
	progressiveSteps := flag.Int("progressive-steps", 3, "refinement requests per progressive stream")
	boxes := flag.String("boxes", "0.05,0.25,1.0", "comma-separated box edge sizes as fractions of the full extent")
	timeout := flag.Duration("timeout", 15*time.Second, "per-request timeout; keeps the run finishing even against a dead server")
	slowestN := flag.Int("slowest", 5, "slowest requests kept in the report with their trace IDs (-1 disables)")
	out := flag.String("out", "", "write the JSON report here (empty prints to stdout)")
	flag.Parse()

	phases, err := parsePhases(*phasesSpec)
	if err != nil {
		return err
	}
	fractions, err := parseFractions(*boxes)
	if err != nil {
		return err
	}
	opts := loadgen.Options{
		BaseURL:          strings.TrimRight(*url, "/"),
		Rate:             *rate,
		Concurrency:      *concurrency,
		Duration:         *duration,
		Phases:           phases,
		ZipfS:            *zipfS,
		Seed:             *seed,
		Tenants:          *tenants,
		Progressive:      *progressive,
		ProgressiveSteps: *progressiveSteps,
		BoxFractions:     fractions,
		Timeout:          *timeout,
		SlowestN:         *slowestN,
	}
	if *closed {
		opts.Rate = 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, opts)
	if err != nil {
		return err
	}

	for _, pr := range append(rep.Phases, rep.Total) {
		fmt.Fprintf(os.Stderr,
			"%-8s %6.1fs  req=%-6d ok=%-6d shed=%-5d err=%-4d fail=%-4d drop=%-4d goodput=%7.1f/s  p50=%6.1fms p95=%6.1fms p99=%6.1fms\n",
			pr.Name, pr.Seconds, pr.Requests, pr.OK, pr.Shed,
			pr.ClientE+pr.ServerE, pr.Failed, pr.Dropped, pr.Goodput,
			pr.P50ms, pr.P95ms, pr.P99ms)
	}

	for _, sr := range rep.Slowest {
		fmt.Fprintf(os.Stderr, "slow %8.1fms status=%d trace=%s %s\n",
			sr.LatencyMs, sr.Status, sr.TraceID, sr.URL)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Println(string(enc))
		return nil
	}
	return os.WriteFile(*out, append(enc, '\n'), 0o644)
}

// parsePhases decodes name:duration:rate-multiplier triples.
func parsePhases(spec string) ([]loadgen.Phase, error) {
	if spec == "" {
		return nil, nil
	}
	var out []loadgen.Phase
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad phase %q (want name:duration:rate-multiplier)", part)
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad phase %q: %w", part, err)
		}
		mult, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || !(mult >= 0) || math.IsInf(mult, 1) {
			return nil, fmt.Errorf("bad phase %q: rate multiplier must be a finite number >= 0", part)
		}
		out = append(out, loadgen.Phase{Name: fields[0], Duration: d, Rate: mult})
	}
	return out, nil
}

// parseFractions decodes the -boxes list.
func parseFractions(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(f > 0 && f <= 1) {
			return nil, fmt.Errorf("bad box fraction %q (want 0 < f <= 1)", part)
		}
		out = append(out, f)
	}
	return out, nil
}
