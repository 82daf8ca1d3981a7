package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nsdfgo/internal/query"
	"nsdfgo/internal/telemetry/trace"
)

// procs is the GOMAXPROCS every run is pinned to, and clients the
// number of closed-loop clients: as many as there are processors, at
// most two. A closed loop because each participant waits for a plot
// before asking for the next one.
const procs = 2

func clientCount() int { return min(procs, runtime.NumCPU()) }

type runOptions struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Workdir  string
	Sizes    sizes
}

// harness holds one run's inputs, the live stack and the load clients'
// shared state.
type harness struct {
	opt   runOptions
	in    *inputs
	or    *oracle
	st    *stack
	rec   *recorder // nil unless traced
	httpc *http.Client

	setups  []float64 // setup_s of each repetition
	ingests []float64 // tutorial WriteGrid seconds of each repetition

	rasterStored int64 // ingest: bytes one replica holds for all rasters
}

// op is one operation whose result was verified.
type op struct {
	req    uint64        // position in the request list, from 1
	lat    time.Duration // client-observed latency
	first  time.Duration // >0 on the op that delivered a stream's first result: time to it
	stream time.Duration // >0 on the op that completed a stream: stream start to here
	wire   int64         // response bytes on the wire

	read, write       int64         // decoded bytes verified on read-back; raw bytes converted
	readDur, writeDur time.Duration // time the op spent on each
	load, toidx       time.Duration // ingest: convert.LoadRaster, convert.ToIDXWith
}

// phase accumulates what the clients observed during one pass.
type phase struct {
	mu        sync.Mutex
	attempted int
	failed    int
	shed      int // 429 responses
	ops       []op
	errs      []string

	wall   float64
	cpuSec float64
	allocB uint64
}

func (p *phase) ok() int { return len(p.ops) }

// record books one attempt: o when err is nil, a failure otherwise.
func (p *phase) record(o op, status int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if status == http.StatusTooManyRequests {
		p.shed++
	}
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
		return
	}
	p.ops = append(p.ops, o)
}

// durationsMS lists one duration of every op, in milliseconds, skipping
// ops where it is zero.
func (p *phase) durationsMS(of func(*op) time.Duration) []float64 {
	var out []float64
	for i := range p.ops {
		if d := of(&p.ops[i]); d > 0 {
			out = append(out, ms(d))
		}
	}
	return out
}

func (p *phase) latMS() []float64 { return p.durationsMS(func(o *op) time.Duration { return o.lat }) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newHarness builds the inputs, stands the stack up (SetupReps times
// when untraced, keeping the last) and warms it.
func newHarness(ctx context.Context, opt runOptions) (_ *harness, err error) {
	h := &harness{opt: opt}
	if h.in, err = buildInputs(opt.Sizes, opt.Workload == ingestConvert); err != nil {
		return nil, err
	}
	if h.or, err = newOracle(h.in); err != nil {
		return nil, err
	}
	reps := opt.Sizes.SetupReps
	if opt.Trace {
		h.rec = newRecorder()
		reps = 1 // setup_s is an end-to-end metric; traced runs do not report it
	}
	for i := 0; i < reps; i++ {
		if h.st != nil {
			h.st.close()
		}
		dir := filepath.Join(opt.Workdir, fmt.Sprintf("run-%d-%d", syscall.Getpid(), i))
		h.st, err = newStack(ctx, dir, h.in, cacheBytes(opt.Workload, opt.Sizes), h.rec)
		if err != nil {
			return nil, err
		}
		h.setups = append(h.setups, h.st.setupSeconds)
		h.ingests = append(h.ingests, h.st.ingestSeconds)
	}
	h.httpc = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clientCount(), DisableCompression: true},
		Timeout:   requestTimeout,
	}
	if err := h.warm(ctx); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *harness) close() {
	h.httpc.CloseIdleConnections()
	h.st.close()
}

// warmStreams is how many streams of the request list the untimed
// warm-up pass replays. It opens the connections, fills pools, checks
// rendered pixels, and on explore_cold brings the small cache to its
// steady state.
const warmStreams = 24

// warm prepares the stack for timing. The warm workloads first read
// every block once, so their caches hold the whole dataset (the cache
// is twice the working set; nothing is evicted afterwards).
func (h *harness) warm(ctx context.Context) error {
	w := h.opt.Workload
	if w == ingestConvert {
		return h.warmIngest(ctx)
	}
	if w != exploreCold {
		for _, f := range fieldNames {
			for t := 0; t < h.in.sz.Timesteps; t++ {
				if _, err := h.st.engine.Read(ctx, query.Request{Field: f, Time: t, Level: query.LevelFull}); err != nil {
					return err
				}
			}
		}
	}
	streams, err := genStreams(w, h.in.sz, h.opt.Seed, warmStreams)
	if err != nil {
		return err
	}
	p := h.drive(ctx, streams, window{to: len(streams)}, true)
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", p.failed, p.attempted, p.errs)
	}
	if h.rec != nil {
		h.rec.take() // warm-up spans are not part of any pass
	}
	return nil
}

// window is the part of the request list a pass plays: streams (on
// the ingest workload, each client's ops) from..to, or everything from
// `from` when to is 0, for at most `length` when that is set. The clock
// starts when the pass does (begin); work in progress at the deadline
// finishes.
type window struct {
	from, to int
	length   time.Duration
	deadline time.Time // set by begin
}

func (w window) begin() window {
	if w.length > 0 {
		w.deadline = time.Now().Add(w.length)
	}
	return w
}

func (w window) open(i int) bool {
	return (w.to == 0 || i < w.to) && (w.deadline.IsZero() || time.Now().Before(w.deadline))
}

// drive runs the closed-loop clients over the window: each client takes
// the next unclaimed stream and plays it request by request. The list
// wraps if it runs out.
func (h *harness) drive(ctx context.Context, streams []stream, win window, pixels bool) *phase {
	p := &phase{}
	var next atomic.Int64
	next.Store(int64(win.from))
	p.measure(func() {
		win := win.begin()
		var wg sync.WaitGroup
		for c := 0; c < clientCount(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					i := int(next.Add(1)) - 1
					if !win.open(i) {
						return
					}
					h.playStream(ctx, p, i, streams[i%len(streams)], &buf, pixels)
				}
			}()
		}
		wg.Wait()
	})
	return p
}

// measure runs fn and books its wall time, process CPU and allocation
// into p.
func (p *phase) measure(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	fn()
	p.wall = time.Since(start).Seconds()
	p.cpuSec = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
}

// processCPU is the user+system CPU seconds this process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// playStream sends the requests of stream number si in order and checks
// each response. Latency is send to last body byte; checking comes
// after. In a traced run the request carries its position in the
// request list as its trace ID (every stream of a workload has the same
// length), so passes over the same prefix number their requests alike.
func (h *harness) playStream(ctx context.Context, p *phase, si int, st stream, buf *bytes.Buffer, pixels bool) {
	streamStart := time.Now()
	for i := range st {
		r := &st[i]
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.st.baseURL+r.path, nil)
		if err != nil {
			p.record(op{}, 0, err)
			return
		}
		n := uint64(si*len(st) + i + 1)
		var o openSpan
		if h.rec != nil {
			req.Header.Set(trace.TraceIDHeader, requestID(n))
			o = h.rec.begin(ctx, "loadgen.request")
			o.set(func(s *span) { s.Req = n })
		}
		start := time.Now()
		status, hdr := 0, http.Header(nil)
		resp, err := h.httpc.Do(req)
		if err == nil {
			status, hdr = resp.StatusCode, resp.Header
			err = readBody(resp, buf)
		}
		lat := time.Since(start)
		o.end(int64(buf.Len()))
		if err == nil {
			err = h.or.check(r, status, hdr, buf.Bytes(), pixels)
		}
		if err != nil {
			p.record(op{}, status, fmt.Errorf("%s: %w", r.path, err))
			return // a participant does not refine a view that failed
		}
		l := latticeOf(h.or.mask, r.Box, r.Level)
		done := op{req: n, lat: lat, wire: int64(buf.Len()), read: int64(l.w*l.h) * 4, readDur: lat}
		if i == 0 {
			done.first = lat
		}
		if i == len(st)-1 {
			done.stream = time.Since(streamStart)
		}
		p.record(done, status, nil)
	}
}

// readBody reads the whole response into buf, which a client reuses
// from request to request. The extra MinRead is the room ReadFrom wants
// before it can see the end of the body.
func readBody(resp *http.Response, buf *bytes.Buffer) error {
	defer resp.Body.Close()
	buf.Reset()
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(resp.Body)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 when there are none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

const mib = float64(1 << 20)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rate is the bytes the ops moved per second they spent moving them, in
// MiB/s.
func (p *phase) rate(of func(*op) (int64, time.Duration)) float64 {
	var bytes int64
	var dur time.Duration
	for i := range p.ops {
		b, d := of(&p.ops[i])
		bytes, dur = bytes+b, dur+d
	}
	return ratio(float64(bytes)/mib, dur.Seconds())
}

// endToEnd turns a measured phase into the end-to-end metrics, each
// taken over every verified op of the phase. Every metric is defined on
// every workload; README.md says what each means on the ingest workload.
func (h *harness) endToEnd(p *phase) map[string]metric {
	okOps := float64(max(p.ok(), 1))
	stored, raw := h.st.storedBytes, h.in.rawBytes()
	ingestRate := float64(raw) / mib / median(h.ingests)
	if h.opt.Workload == ingestConvert {
		stored, raw = h.rasterStored, int64(len(h.in.rasters))*h.rasterBytes()
		ingestRate = p.rate(func(o *op) (int64, time.Duration) { return o.write, o.writeDur })
	}
	lat := p.latMS()
	return map[string]metric{
		"setup_s":              {median(h.setups), "s"},
		"req_p50_ms":           {quantile(lat, 0.50), "ms"},
		"req_p95_ms":           {quantile(lat, 0.95), "ms"},
		"first_preview_p50_ms": {median(p.durationsMS(func(o *op) time.Duration { return o.first })), "ms"},
		"stream_p50_ms":        {median(p.durationsMS(func(o *op) time.Duration { return o.stream })), "ms"},
		"throughput_rps":       {float64(p.ok()) / p.wall, "1/s"},
		"ingest_mb_per_s":      {ingestRate, "MiB/s"},
		"readback_mb_per_s":    {p.rate(func(o *op) (int64, time.Duration) { return o.read, o.readDur }), "MiB/s"},
		"stored_ratio":         {float64(stored) / float64(raw), "ratio"},
		"cpu_ms_per_req":       {p.cpuSec * 1e3 / okOps, "ms"},
		"alloc_kb_per_req":     {float64(p.allocB) / 1024 / okOps, "KiB"},
	}
}
