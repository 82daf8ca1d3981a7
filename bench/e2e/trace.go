package main

import (
	"context"
	"image/png"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/colormap"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/hz"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
)

// tracePrefix is how many streams of the request list (ingest: ops per
// client) a traced pass replays per second of --seconds. The counts are
// fixed rather than timed so that count metrics (blocks, runs, gets per
// request) repeat exactly for a seed; they are sized so that the passes
// of a traced run together take about --seconds on the 2-vCPU reference
// machine. A pass that overruns --seconds on its own stops early.
var tracePrefix = map[string]float64{
	cohortWarm:    12,
	exploreCold:   10,
	renderPreview: 4,
	ingestConvert: 1.2,
}

// layers are the rows of the budget table: the repository's modules
// plus the load generator (client, transport and net/http).
var layers = []string{
	"loadgen", "telemetry", "admission", "dashboard", "query", "idx", "hz",
	"cache", "compress", "shard", "storage", "convert",
}

// traceSegments is the number of pieces the traced prefix is cut into.
// Each piece is played three ways back to back (see traced), so that
// the machine's speed, which drifts by 10-20% over seconds, is about the
// same for all three.
const traceSegments = 8

// directBase offsets the request numbers of the direct pass's spans
// from those of the same requests made over HTTP.
const directBase = 1 << 32

// traced is the -trace 1 run. It plays the same prefix of the request
// list three ways:
//
//  1. with the recorder off, for the untraced latency of every request;
//  2. with the recorder on, for the spans of every boundary between
//     client and disk;
//  3. directly against query.Engine.Read, idx.Dataset.ReadBox,
//     hz.Bitmask.HZRuns and the dashboard's encoders, because
//     dashboard -> query -> idx -> hz is a chain of concrete calls with
//     no boundary to put a recorder on.
//
// On the ingest workload pass 3 is empty: its op already calls each
// layer from the harness.
func (h *harness) traced(ctx context.Context, rep *report) (*phase, error) {
	w := h.opt.Workload
	n := max(int(tracePrefix[w]*h.opt.Seconds), traceSegments)
	budget := time.Duration(h.opt.Seconds * float64(time.Second))
	var streams []stream
	if w != ingestConvert {
		var err error
		if streams, err = genStreams(w, h.in.sz, h.opt.Seed, n); err != nil {
			return nil, err
		}
	}
	off, on, d := &phase{}, &phase{}, newDirect(streams)
	var grown counters
	pass := func(into *phase, lo, hi int, record bool) {
		h.rec.enabled.Store(record)
		before := h.counters()
		win := window{from: lo, to: hi, length: budget / traceSegments}
		if w == ingestConvert {
			into.merge(h.driveIngest(ctx, win, false))
		} else {
			into.merge(h.drive(ctx, streams, win, false))
		}
		if record {
			grown.add(h.counters(), before)
		}
	}
	peak := watchGoroutines()
	for seg := 0; seg < traceSegments; seg++ {
		lo, hi := n*seg/traceSegments, n*(seg+1)/traceSegments
		if seg%2 == 0 {
			pass(off, lo, hi, false)
			pass(on, lo, hi, true)
		} else {
			pass(on, lo, hi, true)
			pass(off, lo, hi, false)
		}
		win := window{from: lo, to: hi, length: budget / traceSegments}
		if err := h.directPass(ctx, d, streams, win); err != nil {
			return nil, err
		}
	}
	goroutines := peak()
	spans := h.rec.take()
	resolve(spans)
	a := newAnalysis(spans)
	d.selfTimesFrom(a)

	m, tbl := h.perLayer(a, d, off, on, grown)
	m["process.goroutines_peak"] = metric{float64(goroutines), "count"}
	rep.Metrics, rep.Budget, rep.Spans = m, tbl, spans
	on.merge(off)
	return on, nil
}

// recorderOverhead is the median, over the requests both passes made,
// of the recorded latency over the unrecorded one, minus one. Pairing
// the same request keeps the request mix out of it, and the two were
// made within a second or two of each other.
func recorderOverhead(off, on *phase) float64 {
	plain := make(map[uint64]time.Duration, len(off.ops))
	for i := range off.ops {
		plain[off.ops[i].req] = off.ops[i].lat
	}
	var ratios []float64
	for i := range on.ops {
		if base := plain[on.ops[i].req]; base > 0 {
			ratios = append(ratios, float64(on.ops[i].lat)/float64(base)-1)
		}
	}
	return median(ratios)
}

// merge adds what q observed to p.
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.shed += q.shed
	p.ops = append(p.ops, q.ops...)
	p.errs = append(p.errs, q.errs...)
	p.wall += q.wall
}

// counters are the process- and registry-wide totals whose growth over
// the recorded passes becomes a metric.
type counters struct {
	evictions, rejects float64
	hedges, failovers  float64
	gcCPU, totalCPU    float64
	gcPauseMS          float64
}

func (h *harness) counters() counters {
	cs := h.st.tiered.Stats()
	c := counters{
		evictions: float64(cs.Evictions),
		rejects:   float64(cs.AdmissionRejects),
		hedges:    h.st.reg.SumFamily("nsdf_shard_hedges_fired_total"),
		failovers: h.st.reg.SumFamily("nsdf_shard_replica_failovers_total"),
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcPauseMS = float64(ms.PauseTotalNs) / 1e6
	return c
}

// add accumulates the growth from before to after.
func (c *counters) add(after, before counters) {
	c.evictions += after.evictions - before.evictions
	c.rejects += after.rejects - before.rejects
	c.hedges += after.hedges - before.hedges
	c.failovers += after.failovers - before.failovers
	c.gcCPU += after.gcCPU - before.gcCPU
	c.totalCPU += after.totalCPU - before.totalCPU
	c.gcPauseMS += after.gcPauseMS - before.gcPauseMS
}

// watchGoroutines samples the goroutine count until the returned
// function is called, which stops the sampler and returns the peak.
func watchGoroutines() func() int {
	var peak atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return int(peak.Load())
	}
}

// analysis indexes a resolved span list.
type analysis struct {
	spans []span
	self  []int64
	reqs  map[uint64]bool // request numbers that have a root span
}

func newAnalysis(spans []span) *analysis {
	a := &analysis{spans: spans, self: selfTimes(spans), reqs: make(map[uint64]bool)}
	for _, s := range spans {
		if s.Parent < 0 && layerOf(s.Name) == "loadgen" && s.Req != 0 {
			a.reqs[s.Req] = true
		}
	}
	return a
}

// each calls fn for every span called name that belongs to a request.
func (a *analysis) each(name string, fn func(s *span, selfNS int64)) {
	for i := range a.spans {
		if s := &a.spans[i]; s.Name == name && a.reqs[s.Req] {
			fn(s, a.self[i])
		}
	}
}

// durMS and selfMS list the durations and self times of the spans
// called name, in milliseconds.
func (a *analysis) durMS(name string) []float64 {
	var out []float64
	a.each(name, func(s *span, _ int64) { out = append(out, float64(s.dur())/1e6) })
	return out
}

func (a *analysis) selfMS(name string) []float64 {
	var out []float64
	a.each(name, func(_ *span, self int64) { out = append(out, float64(self)/1e6) })
	return out
}

// selfPerReq sums, per request, the self time in milliseconds of the
// spans called any of names.
func (a *analysis) selfPerReq(names ...string) map[uint64]float64 {
	out := make(map[uint64]float64)
	for _, name := range names {
		a.each(name, func(s *span, self int64) { out[s.Req] += float64(self) / 1e6 })
	}
	return out
}

// layerMS sums every layer's self time in milliseconds.
func (a *analysis) layerMS() map[string]float64 {
	out := make(map[string]float64)
	for i, s := range a.spans {
		if a.reqs[s.Req] {
			out[layerOf(s.Name)] += float64(a.self[i]) / 1e6
		}
	}
	return out
}

func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0: a per-layer metric of a layer the
// workload does not reach reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// direct holds pass 3's measurements, indexed by request number minus
// one (the numbering pass 2 gives the same requests); a request the
// pass did not reach reads zero everywhere.
type direct struct {
	mu           sync.Mutex
	done         []bool
	queryIdxHzMS []float64 // self time of Engine.Read: query + idx + hz
	idxHzMS      []float64 // self time of Dataset.ReadBox: idx + hz
	hzMS         []float64 // Bitmask.HZRuns for the same lattice
	encodeMS     []float64 // EncodeNPY, or DynamicRange + RenderImage + png.Encode
	bytes        []float64 // decoded sample bytes delivered
	count        float64   // requests measured
	blocks, runs float64
	samples      float64
}

func newDirect(streams []stream) *direct {
	total := 0
	for _, st := range streams {
		total += len(st)
	}
	return &direct{
		done: make([]bool, total), queryIdxHzMS: make([]float64, total), idxHzMS: make([]float64, total),
		hzMS: make([]float64, total), encodeMS: make([]float64, total), bytes: make([]float64, total),
	}
}

// directPass plays the window against the concrete chain under the
// dashboard handler, with as many concurrent callers as pass 2 had
// clients so that the calls contend for the machine the same way. The
// cache, backend and codec wrappers stay in place: what they cover is
// subtracted, leaving each call's self time.
func (h *harness) directPass(ctx context.Context, d *direct, streams []stream, win window) error {
	if len(streams) == 0 {
		return nil
	}
	win = win.begin()
	h.rec.enabled.Store(true)
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		firstErr error
	)
	next.Store(int64(win.from))
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var runs []hz.Run
			for {
				si := int(next.Add(1)) - 1
				if !win.open(si) {
					return
				}
				for i := range streams[si] {
					stats, err := h.directRequest(ctx, d, si*len(streams[si])+i, &streams[si][i], &runs)
					d.mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					d.count++
					d.blocks += float64(stats.BlocksRead + stats.BlocksCached)
					d.runs += float64(stats.Runs)
					d.samples += float64(stats.Samples)
					d.mu.Unlock()
					if err != nil {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// selfTimesFrom files the self times of the direct pass's root spans.
func (d *direct) selfTimesFrom(a *analysis) {
	for i, s := range a.spans {
		n := int(s.Req) - directBase - 1
		if s.Parent >= 0 || n < 0 || n >= len(d.done) {
			continue
		}
		switch s.Name {
		case "direct.query":
			d.queryIdxHzMS[n] = float64(a.self[i]) / 1e6
		case "direct.idx":
			d.idxHzMS[n] = float64(a.self[i]) / 1e6
		}
	}
}

// directRequest makes the calls the dashboard handler makes for r, one
// layer at a time, and files their times under request number n+1.
func (h *harness) directRequest(ctx context.Context, d *direct, n int, r *request, runs *[]hz.Run) (idx.ReadStats, error) {
	ds := h.st.engine.Dataset()
	o := h.rec.begin(ctx, "direct.query")
	o.set(func(s *span) { s.Req = directBase + uint64(n+1) })
	res, err := h.st.engine.Read(withSpan(ctx, o), query.Request{Field: r.Field, Time: r.T, Box: r.Box, Level: r.Level})
	o.end(0)
	if err != nil {
		return idx.ReadStats{}, err
	}
	o = h.rec.begin(ctx, "direct.idx")
	o.set(func(s *span) { s.Req = directBase + uint64(n+1) })
	_, _, err = ds.ReadBox(withSpan(ctx, o), r.Field, r.T, r.Box, r.Level)
	o.end(0)
	if err != nil {
		return idx.ReadStats{}, err
	}

	l := latticeOf(ds.Meta.Bits, r.Box, r.Level)
	t0 := time.Now()
	*runs = ds.Meta.Bits.HZRuns((*runs)[:0], hz.RunQuery{
		X0: l.x0, Y0: l.y0, NX: l.w, NY: l.h, Level: r.Level, OutW: l.w, SplitShift: ds.Meta.BitsPerBlock,
	})
	d.hzMS[n] = ms(time.Since(t0))

	t0 = time.Now()
	if r.Render {
		palette, err := colormap.Lookup(r.Palette)
		if err != nil {
			return idx.ReadStats{}, err
		}
		img := dashboard.RenderImage(res.Grid, palette, colormap.DynamicRange(res.Grid.Data))
		if err := png.Encode(io.Discard, img); err != nil {
			return idx.ReadStats{}, err
		}
	} else if _, err := dashboard.EncodeNPY(res.Grid); err != nil {
		return idx.ReadStats{}, err
	}
	d.encodeMS[n] = ms(time.Since(t0))
	d.bytes[n] = float64(res.Stats.Samples) * 4
	d.done[n] = true
	return res.Stats, nil
}

// perLayer derives the per-layer metrics and the budget table from the
// traced pass (a, on), the direct pass (d, empty on ingest) and the
// recorder-off pass.
func (h *harness) perLayer(a *analysis, d *direct, off, on *phase, grown counters) (map[string]metric, map[string]float64) {
	nReq := float64(max(len(a.reqs), 1))
	us := func(xs []float64) float64 { return median(xs) * 1e3 }
	wallMS := sum(a.durMS("loadgen.request")) + sum(a.durMS("loadgen.ingest"))

	// The budget starts as each layer's summed self time. The dashboard
	// handler's self time still contains query, idx and hz; the direct
	// pass says how much of it is theirs.
	tbl := a.layerMS()
	handler := a.selfPerReq("dashboard.handler")
	var dashSelf, querySelf, idxSelf, hzSelf, encode []float64
	var encodedBytes, unexplained float64
	if h.opt.Workload != ingestConvert {
		var handlerMS, partsMS float64
		for i, done := range d.done {
			hs, ok := handler[uint64(i+1)]
			if !done || !ok {
				continue
			}
			// The two differences are between calls made one after the
			// other, so a single one can come out negative; they are
			// clamped only once aggregated.
			q, ix := d.queryIdxHzMS[i]-d.idxHzMS[i], d.idxHzMS[i]-d.hzMS[i]
			tbl["dashboard"] -= d.queryIdxHzMS[i]
			tbl["query"] += q
			tbl["idx"] += ix
			tbl["hz"] += d.hzMS[i]
			dashSelf = append(dashSelf, hs-d.queryIdxHzMS[i])
			querySelf = append(querySelf, q)
			idxSelf = append(idxSelf, ix)
			hzSelf = append(hzSelf, d.hzMS[i])
			encode = append(encode, d.encodeMS[i])
			encodedBytes += d.bytes[i]
			handlerMS += hs
			partsMS += d.queryIdxHzMS[i] + d.encodeMS[i]
		}
		// What neither the direct calls nor the encoders explain of the
		// handler's self time (parameter parsing, header writes, and any
		// difference between the same call made in the two passes) is
		// the part of a request no layer is charged for.
		unexplained = math.Abs(handlerMS - partsMS)
	} else {
		unexplained = sum(a.selfMS("loadgen.ingest"))
	}
	for l, v := range tbl {
		tbl[l] = v / nReq
	}

	hits, misses, coalesced := 0.0, 0.0, 0.0
	var fillWait []float64
	for _, name := range []string{"cache.peek", "cache.get"} {
		a.each(name, func(s *span, _ int64) { hits += float64(s.N) })
	}
	a.each("cache.getorfill", func(s *span, _ int64) {
		switch cache.Outcome(s.N) {
		case cache.OutcomeHit, cache.OutcomeDiskHit:
			hits++
		case cache.OutcomeCoalesced:
			coalesced++
			fallthrough
		default:
			misses++
			fillWait = append(fillWait, float64(s.dur())/1e6)
		}
	})

	var decodeMS, decodeB, encodeMS, encodeB float64
	a.each("compress.decode", func(s *span, _ int64) { decodeMS += float64(s.dur()) / 1e6; decodeB += float64(s.N) })
	a.each("compress.encode", func(s *span, _ int64) { encodeMS += float64(s.dur()) / 1e6; encodeB += float64(s.N) })

	routerGets := float64(len(a.durMS("shard.get")))
	nodeGets := a.durMS("storage.get")
	perNode := make(map[string]float64)
	wire, storageErrs := 0.0, 0.0
	for _, name := range []string{"storage.get", "storage.put", "storage.delete", "storage.stat", "storage.list"} {
		a.each(name, func(s *span, _ int64) {
			wire += float64(s.N)
			if s.Err {
				storageErrs++
			}
			if name == "storage.get" {
				perNode[s.Node]++
			}
		})
	}
	busiest := 0.0
	for _, n := range perNode {
		busiest = math.Max(busiest, n)
	}

	wireBytes := 0.0
	for i := range on.ops {
		wireBytes += float64(on.ops[i].wire)
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // peak RSS reads 0 if the call fails
	atLeast0 := func(v float64) float64 { return math.Max(v, 0) }

	m := map[string]metric{
		"loadgen.client_self_ms_p50":         {median(append(a.selfMS("loadgen.request"), a.selfMS("loadgen.ingest")...)), "ms"},
		"loadgen.resp_bytes_per_req":         {ratio(wireBytes, float64(on.ok())), "B"},
		"loadgen.fail_share":                 {ratio(float64(on.failed+off.failed), float64(on.attempted+off.attempted)), "ratio"},
		"loadgen.traced_requests":            {float64(len(a.reqs)), "count"},
		"attributed_share":                   {1 - ratio(unexplained, wallMS), "ratio"},
		"telemetry.bench_trace_overhead_pct": {100 * recorderOverhead(off, on), "%"},
		"telemetry.tracing_self_us_p50":      {us(values(a.selfPerReq("telemetry.tracing", "telemetry.timeout"))), "us"},
		"admission.self_us_p50":              {us(a.selfMS("admission.gate")), "us"},
		"admission.shed_count":               {float64(on.shed + off.shed), "count"},
		"dashboard.self_ms_p50":              {atLeast0(median(dashSelf)), "ms"},
		"dashboard.write_ms_p50":             {median(values(a.selfPerReq("dashboard.write"))), "ms"},
		"query.self_us_p50":                  {atLeast0(us(querySelf)), "us"},
		"idx.readbox_self_ms_p50":            {atLeast0(median(idxSelf)), "ms"},
		"idx.writegrid_self_ms_p50":          {median(a.selfMS("idx.write")), "ms"},
		"cache.hit_rate":                     {ratio(hits, hits+misses), "ratio"},
		"cache.lookup_us_p50":                {us(a.durMS("cache.peek")), "us"},
		"cache.fill_wait_ms_p50":             {median(fillWait), "ms"},
		"cache.evictions":                    {grown.evictions, "count"},
		"cache.coalesced":                    {coalesced, "count"},
		"cache.admission_rejects":            {grown.rejects, "count"},
		"compress.decode_ms_per_mib":         {ratio(decodeMS, decodeB/mib), "ms/MiB"},
		"compress.encode_ms_per_mib":         {ratio(encodeMS, encodeB/mib), "ms/MiB"},
		"compress.busy_share":                {ratio(decodeMS+encodeMS, wallMS), "ratio"},
		"shard.get_self_us_p50":              {us(a.selfMS("shard.get")), "us"},
		"shard.put_fanout_ms_p50":            {median(a.durMS("shard.put")), "ms"},
		"shard.hedges_fired":                 {grown.hedges, "count"},
		"shard.failovers":                    {grown.failovers, "count"},
		"shard.extra_gets_share":             {ratio(float64(len(nodeGets))-routerGets, routerGets), "ratio"},
		"shard.node_get_imbalance":           {ratio(busiest, float64(len(nodeGets))/nodeCount), "ratio"},
		"storage.get_ms_p50":                 {quantile(nodeGets, 0.5), "ms"},
		"storage.get_ms_p95":                 {quantile(nodeGets, 0.95), "ms"},
		"storage.put_ms_p50":                 {median(a.durMS("storage.put")), "ms"},
		"storage.gets_per_req":               {float64(len(nodeGets)) / nReq, "count"},
		"storage.wire_bytes_per_req":         {wire / nReq, "B"},
		"storage.server_self_ms_p50":         {median(a.selfMS(serverSpan)), "ms"},
		"storage.client_overhead_ms_p50":     {median(append(a.selfMS("storage.get"), a.selfMS("storage.put")...)), "ms"},
		"storage.errors":                     {storageErrs, "count"},
		"convert.load_ms_p50":                {median(on.durationsMS(func(o *op) time.Duration { return o.load })), "ms"},
		"convert.toidx_ms_p50":               {median(on.durationsMS(func(o *op) time.Duration { return o.toidx })), "ms"},
		"process.peak_rss_mb":                {float64(ru.Maxrss) / 1024, "MiB"},
		"process.gc_cpu_share":               {ratio(grown.gcCPU, grown.totalCPU), "ratio"},
		"process.gc_pause_ms_total":          {grown.gcPauseMS, "ms"},
		"dashboard.encode_ms_p50":            {median(encode), "ms"},
		"dashboard.encode_mb_per_s":          {ratio(encodedBytes/mib, sum(encode)/1e3), "MiB/s"},
		"idx.assemble_mb_per_s":              {ratio(encodedBytes/mib, atLeast0(sum(idxSelf))/1e3), "MiB/s"},
		"idx.blocks_per_req":                 {ratio(d.blocks, d.count), "count"},
		"idx.samples_per_req":                {ratio(d.samples, d.count), "count"},
		"hz.plan_us_p50":                     {us(hzSelf), "us"},
		"hz.runs_per_req":                    {ratio(d.runs, d.count), "count"},
		"hz.samples_per_run":                 {ratio(d.samples, d.runs), "count"},
	}
	for _, l := range layers {
		m["budget."+l+"_ms_per_req"] = metric{tbl[l], "ms"}
	}
	return m, tbl
}
