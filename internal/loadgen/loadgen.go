// Package loadgen drives NSDF serving endpoints with a workload shaped
// like a training cohort: dataset popularity follows a zipfian
// distribution (everyone opens the tutorial dataset; a few explore the
// long tail), requests mix small probe boxes with full-extent reads,
// some clients stream progressive refinements the way the dashboard's
// resolution slider does, and traffic arrives in configurable phases
// (warm-up, burst, cool-down). Every request's latency, status, and
// byte count is captured, so a run yields the offered-load vs
// goodput/percentile curves the serving benchmarks gate on.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"nsdfgo/internal/telemetry/trace"
)

// Dataset describes one load-target dataset, as discovered from the
// dashboard's /api/datasets endpoint.
type Dataset struct {
	Name      string   `json:"name"`
	Fields    []string `json:"fields"`
	Width     int      `json:"width"`
	Height    int      `json:"height"`
	Timesteps int      `json:"timesteps"`
	MaxLevel  int      `json:"max_level"`
}

// Discover fetches the target server's dataset catalogue.
func Discover(ctx context.Context, client *http.Client, baseURL string) ([]Dataset, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/api/datasets", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: discover: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: discover: %s from %s", resp.Status, baseURL)
	}
	var ds []Dataset
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		return nil, fmt.Errorf("loadgen: discover: %w", err)
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("loadgen: discover: %s serves no datasets", baseURL)
	}
	return ds, nil
}

// Phase is one traffic phase: Rate scales Options.Rate for Duration
// (e.g. a 3x burst). A zero Rate idles the generator for the duration.
type Phase struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration"`
	Rate     float64       `json:"rate"`
}

// Options configures a load run.
type Options struct {
	// BaseURL is the target server, e.g. http://localhost:8080.
	BaseURL string
	// Datasets are the load targets; empty discovers them from BaseURL.
	Datasets []Dataset
	// Rate is the base offered arrival rate in streams/second (open
	// loop). <= 0 switches to closed loop: Concurrency workers issue
	// streams back to back.
	Rate float64
	// Concurrency is the worker-pool size (closed loop) or the max
	// client-side in-flight bound (open loop). Default 16.
	Concurrency int
	// Duration bounds the run when Phases is empty. Default 10s.
	Duration time.Duration
	// Phases runs instead of a single steady phase when non-empty.
	Phases []Phase
	// ZipfS/ZipfV shape dataset popularity (rand.NewZipf; S > 1).
	// Defaults 1.2 / 1.
	ZipfS, ZipfV float64
	// Seed makes the workload reproducible.
	Seed int64
	// Tenants > 0 spreads streams across that many synthetic tenants via
	// the X-NSDF-Tenant header; 0 sends no tenant header.
	Tenants int
	// Progressive is the fraction of streams issued as progressive
	// refinements (coarse level first, then finer) in [0,1].
	Progressive float64
	// ProgressiveSteps is the number of refinement requests per
	// progressive stream. Default 3.
	ProgressiveSteps int
	// BoxFractions are the box edge sizes mixed into the workload, as
	// fractions of the full extent. Default {0.05, 0.25, 1.0}.
	BoxFractions []float64
	// Timeout bounds each request, so a dead or wedged server degrades
	// the run instead of hanging it. Default 15s.
	Timeout time.Duration
	// Client overrides the HTTP client (its Timeout is ignored; Timeout
	// above governs).
	Client *http.Client
	// SlowestN is how many of the run's slowest requests the report
	// keeps, each with its server-assigned trace ID — the handle a
	// student pastes into /debug/traces?federate=1 to see where a tail
	// request's time went. Default 5; negative disables.
	SlowestN int
}

// Sample is one request's outcome.
type Sample struct {
	Phase   string
	Status  int // 0 on transport error
	Latency time.Duration
	Bytes   int64
	// URL is the request that produced this sample.
	URL string
	// TraceID is the server-assigned trace ID (the X-NSDF-Trace-Id
	// response header), empty on transport error or untraced servers.
	TraceID string
}

// PhaseReport aggregates one phase (or the whole run, for Total).
type PhaseReport struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Offered  float64 `json:"offered_rps"` // streams/s offered (open loop) or achieved
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`       // 429s
	ClientE  int     `json:"client_err"` // other 4xx
	ServerE  int     `json:"server_err"` // 5xx
	Failed   int     `json:"failed"`     // transport errors / timeouts
	Dropped  int     `json:"dropped"`    // open-loop arrivals the client could not launch
	Goodput  float64 `json:"goodput_rps"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
	Bytes    int64   `json:"bytes"`
}

// SlowRequest is one of the run's slowest requests, with the trace ID
// to chase it across the cluster.
type SlowRequest struct {
	URL       string  `json:"url"`
	Phase     string  `json:"phase"`
	Status    int     `json:"status"`
	LatencyMs float64 `json:"latency_ms"`
	TraceID   string  `json:"trace_id,omitempty"`
}

// Report is a full run's outcome.
type Report struct {
	Target string        `json:"target"`
	Phases []PhaseReport `json:"phases"`
	Total  PhaseReport   `json:"total"`
	// Slowest lists the run's N highest-latency requests (Options.
	// SlowestN), slowest first, each with its trace ID when the server
	// supplied one.
	Slowest []SlowRequest `json:"slowest_requests,omitempty"`
	Samples []Sample      `json:"-"` // raw captures, for custom analysis
}

// request is one HTTP GET the workload issues.
type request struct {
	url    string
	tenant string
	phase  string
}

// stream is one logical client interaction: a single read, or a
// progressive coarse-to-fine sequence issued in order.
type stream struct {
	reqs []request
}

// gen synthesises streams. It is driven from one goroutine at a time
// (the dispatcher, or one per closed-loop worker via clone), so rng
// needs no lock.
type gen struct {
	opts Options
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newGen(opts Options, seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	return &gen{
		opts: opts,
		rng:  rng,
		zipf: rand.NewZipf(rng, opts.ZipfS, opts.ZipfV, uint64(len(opts.Datasets)-1)),
	}
}

// next synthesises one stream for the named phase.
func (g *gen) next(phase string) stream {
	ds := g.opts.Datasets[int(g.zipf.Uint64())]
	field := ""
	if len(ds.Fields) > 0 {
		field = ds.Fields[g.rng.Intn(len(ds.Fields))]
	}
	t := 0
	if ds.Timesteps > 1 {
		t = g.rng.Intn(ds.Timesteps)
	}
	frac := g.opts.BoxFractions[g.rng.Intn(len(g.opts.BoxFractions))]
	bw := boxEdge(ds.Width, frac)
	bh := boxEdge(ds.Height, frac)
	x0 := g.rng.Intn(ds.Width - bw + 1)
	y0 := g.rng.Intn(ds.Height - bh + 1)
	tenant := ""
	if g.opts.Tenants > 0 {
		tenant = fmt.Sprintf("tenant-%d", g.rng.Intn(g.opts.Tenants))
	}
	levels := []int{ds.MaxLevel - g.rng.Intn(3)}
	if g.rng.Float64() < g.opts.Progressive {
		levels = progressiveLevels(ds.MaxLevel, g.opts.ProgressiveSteps)
	}
	var st stream
	for _, lv := range levels {
		if lv < 0 {
			lv = 0
		}
		st.reqs = append(st.reqs, request{
			url: fmt.Sprintf("%s/api/data?dataset=%s&field=%s&t=%d&x0=%d&y0=%d&x1=%d&y1=%d&level=%d",
				g.opts.BaseURL, ds.Name, field, t, x0, y0, x0+bw, y0+bh, lv),
			tenant: tenant,
			phase:  phase,
		})
	}
	return st
}

// boxEdge converts a fractional edge size to pixels, at least 1.
func boxEdge(extent int, frac float64) int {
	e := int(float64(extent) * frac)
	if e < 1 {
		e = 1
	}
	if e > extent {
		e = extent
	}
	return e
}

// progressiveLevels builds the coarse-to-fine level sequence of one
// progressive stream: steps levels, two apart (4x the samples each
// refinement in 2D), ending at the dataset's full resolution.
func progressiveLevels(maxLevel, steps int) []int {
	out := make([]int, 0, steps)
	for i := steps - 1; i >= 0; i-- {
		lv := maxLevel - 2*i
		if lv < 0 {
			lv = 0
		}
		out = append(out, lv)
	}
	return out
}

// collector gathers samples and drop counts across workers.
type collector struct {
	mu      sync.Mutex
	samples []Sample
	dropped map[string]int
}

func (c *collector) add(s Sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

func (c *collector) drop(phase string) {
	c.mu.Lock()
	c.dropped[phase]++
	c.mu.Unlock()
}

// Run executes the configured load against opts.BaseURL and reports.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 16
	}
	if opts.Duration <= 0 {
		opts.Duration = 10 * time.Second
	}
	if opts.ZipfS <= 1 {
		opts.ZipfS = 1.2
	}
	if opts.ZipfV < 1 {
		opts.ZipfV = 1
	}
	if opts.ProgressiveSteps <= 0 {
		opts.ProgressiveSteps = 3
	}
	if len(opts.BoxFractions) == 0 {
		opts.BoxFractions = []float64{0.05, 0.25, 1.0}
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 15 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: opts.Concurrency}}
	}
	if len(opts.Phases) == 0 {
		opts.Phases = []Phase{{Name: "steady", Duration: opts.Duration, Rate: 1}}
	}
	if len(opts.Datasets) == 0 {
		ds, err := Discover(ctx, opts.Client, opts.BaseURL)
		if err != nil {
			return nil, err
		}
		opts.Datasets = ds
	}

	col := &collector{dropped: make(map[string]int)}
	phaseSecs := make(map[string]float64)
	for _, ph := range opts.Phases {
		phaseSecs[ph.Name] += ph.Duration.Seconds()
	}

	if opts.Rate > 0 {
		runOpenLoop(ctx, opts, col)
	} else {
		runClosedLoop(ctx, opts, col)
	}
	return buildReport(opts, col, phaseSecs), nil
}

// runOpenLoop offers streams at the configured rate regardless of how
// the server keeps up — the honest way to measure an overloaded tier.
// Arrivals beyond the client's own in-flight bound are counted as
// dropped rather than silently deferred (deferring would be a closed
// loop in disguise).
func runOpenLoop(ctx context.Context, opts Options, col *collector) {
	g := newGen(opts, opts.Seed)
	work := make(chan stream, opts.Concurrency)
	var wg sync.WaitGroup
	for i := 0; i < opts.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case st, ok := <-work:
					if !ok {
						return
					}
					runStream(ctx, opts, st, col)
				}
			}
		}()
	}
	for _, ph := range opts.Phases {
		deadline := time.Now().Add(ph.Duration)
		rate := opts.Rate * ph.Rate
		if rate <= 0 {
			idle(ctx, ph.Duration)
			continue
		}
		interval := time.Duration(float64(time.Second) / rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		ticker := time.NewTicker(interval)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			select {
			case <-ctx.Done():
			case <-ticker.C:
				select {
				case work <- g.next(ph.Name):
				default:
					col.drop(ph.Name)
				}
			}
		}
		ticker.Stop()
	}
	close(work)
	wg.Wait()
}

// runClosedLoop keeps Concurrency synthetic clients busy back to back —
// the workload shape of a classroom where everyone waits for their plot
// before asking for the next one.
func runClosedLoop(ctx context.Context, opts Options, col *collector) {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opts.Concurrency; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			g := newGen(opts, opts.Seed+int64(worker)*7919)
			elapsed := time.Since(start)
			for _, ph := range opts.Phases {
				phaseEnd := elapsed + ph.Duration
				deadline := start.Add(phaseEnd)
				if ph.Rate <= 0 {
					idle(ctx, time.Until(deadline))
					elapsed = phaseEnd
					continue
				}
				for time.Now().Before(deadline) && ctx.Err() == nil {
					runStream(ctx, opts, g.next(ph.Name), col)
				}
				elapsed = phaseEnd
			}
		}(i)
	}
	wg.Wait()
}

// idle sleeps through a zero-rate phase, abandoning early on cancel.
func idle(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runStream issues the stream's requests in order, capturing one sample
// each. A failed refinement ends the stream (the dashboard would stop
// refining too).
func runStream(ctx context.Context, opts Options, st stream, col *collector) {
	for _, rq := range st.reqs {
		s, ok := doRequest(ctx, opts, rq)
		col.add(s)
		if !ok {
			return
		}
	}
}

// doRequest performs one GET, draining the body so connection reuse and
// byte accounting both work. ok reports whether the stream should
// continue refining.
func doRequest(ctx context.Context, opts Options, rq request) (Sample, bool) {
	rctx, cancel := context.WithTimeout(ctx, opts.Timeout)
	defer cancel()
	s := Sample{Phase: rq.phase, URL: rq.url}
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, rq.url, nil)
	if err != nil {
		return s, false
	}
	if rq.tenant != "" {
		req.Header.Set("X-NSDF-Tenant", rq.tenant)
	}
	start := time.Now()
	resp, err := opts.Client.Do(req)
	if err != nil {
		s.Latency = time.Since(start)
		return s, false
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	s.Latency = time.Since(start)
	s.Status = resp.StatusCode
	s.Bytes = n
	s.TraceID = resp.Header.Get(trace.TraceIDHeader)
	return s, s.Status == http.StatusOK
}

// buildReport aggregates the captured samples per phase and overall.
func buildReport(opts Options, col *collector, phaseSecs map[string]float64) *Report {
	col.mu.Lock()
	samples := col.samples
	dropped := col.dropped
	col.mu.Unlock()

	byPhase := make(map[string][]Sample)
	order := make([]string, 0, len(opts.Phases))
	seen := make(map[string]bool)
	for _, ph := range opts.Phases {
		if !seen[ph.Name] {
			seen[ph.Name] = true
			order = append(order, ph.Name)
		}
	}
	for _, s := range samples {
		byPhase[s.Phase] = append(byPhase[s.Phase], s)
	}
	rep := &Report{Target: opts.BaseURL, Samples: samples}
	var totalSecs float64
	for _, ph := range opts.Phases {
		totalSecs += ph.Duration.Seconds()
	}
	for _, name := range order {
		pr := aggregate(name, byPhase[name], phaseSecs[name])
		pr.Dropped = dropped[name]
		rep.Phases = append(rep.Phases, pr)
	}
	rep.Total = aggregate("total", samples, totalSecs)
	for _, n := range dropped {
		rep.Total.Dropped += n
	}
	rep.Slowest = slowest(samples, opts.SlowestN)
	return rep
}

// slowest picks the n highest-latency answered samples, slowest first.
// Transport failures carry no server latency or trace ID, so they are
// excluded — a failed request is a Failed count, not a tail sample.
func slowest(samples []Sample, n int) []SlowRequest {
	if n == 0 {
		n = 5
	}
	if n < 0 {
		return nil
	}
	answered := make([]Sample, 0, len(samples))
	for _, s := range samples {
		if s.Status != 0 {
			answered = append(answered, s)
		}
	}
	sort.Slice(answered, func(i, j int) bool { return answered[i].Latency > answered[j].Latency })
	if len(answered) > n {
		answered = answered[:n]
	}
	out := make([]SlowRequest, 0, len(answered))
	for _, s := range answered {
		out = append(out, SlowRequest{
			URL:       s.URL,
			Phase:     s.Phase,
			Status:    s.Status,
			LatencyMs: float64(s.Latency) / float64(time.Millisecond),
			TraceID:   s.TraceID,
		})
	}
	return out
}

// aggregate folds samples into one PhaseReport.
func aggregate(name string, samples []Sample, secs float64) PhaseReport {
	pr := PhaseReport{Name: name, Seconds: secs, Requests: len(samples)}
	lat := make([]float64, 0, len(samples))
	for _, s := range samples {
		pr.Bytes += s.Bytes
		switch {
		case s.Status == 0:
			pr.Failed++
		case s.Status == http.StatusOK:
			pr.OK++
			lat = append(lat, float64(s.Latency)/float64(time.Millisecond))
		case s.Status == http.StatusTooManyRequests:
			pr.Shed++
		case s.Status >= 500:
			pr.ServerE++
		default:
			pr.ClientE++
		}
	}
	if secs > 0 {
		pr.Offered = float64(len(samples)) / secs
		pr.Goodput = float64(pr.OK) / secs
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		pr.P50ms = percentile(lat, 0.50)
		pr.P95ms = percentile(lat, 0.95)
		pr.P99ms = percentile(lat, 0.99)
		pr.MaxMs = lat[len(lat)-1]
	}
	return pr
}

// percentile reads the p-quantile from sorted ms latencies.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
