package loadgen_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"nsdfgo/internal/admission"
	"nsdfgo/internal/dashboard"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/loadgen"
	"nsdfgo/internal/query"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/telemetry"
)

// This file is the serving-under-load acceptance harness behind
// `make bench-serving` and BENCH_serving.json. It drives two identical
// dashboard stacks over a capacity-limited block backend with the
// loadgen workload at 2x their sustainable throughput: the baseline
// stack admits everything and degrades (queueing delay blows p99 past
// the client's patience, so goodput collapses), while the
// admission-controlled stack sheds the excess as fast 429s and keeps
// admitted p99 and goodput near their uncontended values. A third
// section kills the backend mid-run and requires the load generator to
// complete with only shed/degraded responses — no hangs.

// chokeBackend is an idx.Backend whose block reads contend for a fixed
// number of transfer slots, each costing a fixed service time — the
// capacity model that makes "sustainable throughput" a real number.
// down simulates a killed storage node: block reads fail immediately.
type chokeBackend struct {
	*storage.IDXBackend
	slots  chan struct{}
	perGet time.Duration
	armed  atomic.Bool
	down   atomic.Bool
	gets   atomic.Int64
}

func newChokeBackend(slots int, perGet time.Duration) *chokeBackend {
	return &chokeBackend{
		IDXBackend: storage.NewIDXBackend(storage.NewMemStore(), ""),
		slots:      make(chan struct{}, slots),
		perGet:     perGet,
	}
}

func (b *chokeBackend) Get(ctx context.Context, name string) ([]byte, error) {
	if name == idx.MetaObjectName || !b.armed.Load() {
		return b.IDXBackend.Get(ctx, name)
	}
	if b.down.Load() {
		return nil, errors.New("choke: node is down")
	}
	b.gets.Add(1)
	select {
	case b.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	t := time.NewTimer(b.perGet)
	select {
	case <-ctx.Done():
		t.Stop()
		<-b.slots
		return nil, ctx.Err()
	case <-t.C:
	}
	<-b.slots
	return b.IDXBackend.Get(ctx, name)
}

// servingStack is one dashboard instance over its own choked backend.
type servingStack struct {
	be   *chokeBackend
	ctrl *admission.Controller
	reg  *telemetry.Registry
	srv  *httptest.Server
}

// newServingStack builds a 128x128, 2-field, 2-timestep dataset (one
// block per field/timestep at the default block size, so every request
// costs exactly one choked backend read) served without caching. With
// admit, the admission controller fronts the server and its pressure
// feeds the engine's fetch pool.
func newServingStack(t *testing.T, slots int, perGet time.Duration, admit *admission.Options) *servingStack {
	t.Helper()
	be := newChokeBackend(slots, perGet)
	meta, err := idx.NewMeta([]int{128, 128}, []idx.Field{
		{Name: "elevation", Type: idx.Float32},
		{Name: "hillshade", Type: idx.Float32},
	})
	if err != nil {
		t.Fatal(err)
	}
	meta.Timesteps = 2
	ds, err := idx.Create(context.Background(), be, meta)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range []string{"elevation", "hillshade"} {
		for ts := 0; ts < 2; ts++ {
			g := dem.Scale(dem.FBM(128, 128, uint64(100*fi+ts+1), dem.DefaultFBM()), 0, 100)
			if err := ds.WriteGrid(context.Background(), f, ts, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := query.New(ds, 0) // caching off: every request pays the backend
	s := dashboard.NewServer()
	s.Register("terrain", e)
	st := &servingStack{be: be, reg: telemetry.NewRegistry()}
	if admit != nil {
		st.ctrl = admission.NewController(*admit)
		st.ctrl.Instrument(st.reg, "dashboard")
		e.SetFetchPressure(st.ctrl.Pressure)
		st.srv = httptest.NewServer(st.ctrl.Middleware(s))
	} else {
		st.srv = httptest.NewServer(s)
	}
	t.Cleanup(st.srv.Close)
	be.armed.Store(true)
	return st
}

// workload is the shared loadgen shape: one dataset, mixed boxes, a
// quarter of streams progressive.
func workload(baseURL string, seed int64) loadgen.Options {
	return loadgen.Options{
		BaseURL:      baseURL,
		Seed:         seed,
		Tenants:      4,
		Progressive:  0.25,
		BoxFractions: []float64{0.1, 0.5, 1.0},
	}
}

func TestBenchServingEmit(t *testing.T) {
	iters, _ := strconv.Atoi(os.Getenv("NSDF_BENCH_SERVING_ITERS"))
	if iters <= 0 {
		t.Skip("set NSDF_BENCH_SERVING_ITERS>=1 to run the serving benchmark emitter")
	}
	smoke := iters == 1
	outPath := os.Getenv("NSDF_BENCH_SERVING_OUT")
	if outPath == "" {
		outPath = t.TempDir() + "/BENCH_serving.json"
	}
	prev := runtime.GOMAXPROCS(8) // results must not depend on the host's core count
	defer runtime.GOMAXPROCS(prev)

	// Capacity model: 4 transfer slots x 10ms per block read = ~400
	// block reads/s. Client patience (timeout) is 300ms: far above the
	// admitted path's latency, far below the baseline's overload queue.
	const slots = 4
	const perGet = 10 * time.Millisecond
	const patience = 300 * time.Millisecond
	// MaxQueue stays shallow on purpose: every queued slot adds its
	// service time to admitted latency, and the p99 gate below allows
	// only one uncontended-p99's worth of queueing delay.
	admitOpts := admission.Options{
		MaxConcurrent: slots,
		MaxQueue:      slots,
		QueueTimeout:  100 * time.Millisecond,
		RetryAfter:    time.Second,
	}
	measure := time.Duration(iters) * time.Second
	if measure > 4*time.Second {
		measure = 4 * time.Second
	}
	if smoke {
		measure = 400 * time.Millisecond
	}
	ctx := context.Background()

	// --- Uncontended latency: one closed-loop client, no competition. ---
	uncontendedStack := newServingStack(t, slots, perGet, nil)
	uo := workload(uncontendedStack.srv.URL, 1)
	uo.Rate = 0
	uo.Concurrency = 1
	uo.Duration = measure
	uncontended, err := loadgen.Run(ctx, uo)
	if err != nil {
		t.Fatal(err)
	}

	// --- Sustainable (peak) throughput: closed loop at the capacity
	// concurrency, same stack (its backend is idle again). ---
	so := workload(uncontendedStack.srv.URL, 2)
	so.Rate = 0
	so.Concurrency = slots
	so.Duration = measure
	sustained, err := loadgen.Run(ctx, so)
	if err != nil {
		t.Fatal(err)
	}
	offered := 2 * sustained.Total.Goodput

	// --- Overload: open loop at 2x sustainable against both stacks. ---
	overload := func(stack *servingStack, seed int64) *loadgen.Report {
		oo := workload(stack.srv.URL, seed)
		oo.Rate = offered
		oo.Concurrency = 256 // client-side in-flight bound, not the bottleneck
		oo.Duration = measure
		oo.Timeout = patience
		rep, err := loadgen.Run(ctx, oo)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	baselineStack := newServingStack(t, slots, perGet, nil)
	baseline := overload(baselineStack, 3)
	admittedStack := newServingStack(t, slots, perGet, &admitOpts)
	admitted := overload(admittedStack, 3)
	shedTotal := admittedStack.reg.Counter("nsdf_admission_shed_total",
		"service", "dashboard", "reason", admission.ReasonQueueFull).Value() +
		admittedStack.reg.Counter("nsdf_admission_shed_total",
			"service", "dashboard", "reason", admission.ReasonQueueTimeout).Value()
	admittedTotal := admittedStack.reg.Counter("nsdf_admission_admitted_total",
		"service", "dashboard").Value()

	// --- Killed node: flip the backend down mid-run; the run must end
	// on time with only shed/degraded responses afterwards. ---
	killStack := newServingStack(t, slots, perGet, &admitOpts)
	ko := workload(killStack.srv.URL, 4)
	ko.Rate = sustained.Total.Goodput
	ko.Concurrency = 64
	ko.Timeout = patience
	ko.Phases = []loadgen.Phase{
		{Name: "healthy", Duration: measure / 2, Rate: 1},
		{Name: "killed", Duration: measure / 2, Rate: 1},
	}
	killTimer := time.AfterFunc(measure/2, func() { killStack.be.down.Store(true) })
	defer killTimer.Stop()
	killStart := time.Now()
	killed, err := loadgen.Run(ctx, ko)
	if err != nil {
		t.Fatal(err)
	}
	killElapsed := time.Since(killStart)
	killBudget := measure + patience + 5*time.Second
	var killedPhase loadgen.PhaseReport
	for _, ph := range killed.Phases {
		if ph.Name == "killed" {
			killedPhase = ph
		}
	}

	doc := struct {
		Description string `json:"description"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
		Iters       int    `json:"iterations"`
		Capacity    struct {
			Slots      int     `json:"transfer_slots"`
			PerGetMs   float64 `json:"per_get_ms"`
			PatienceMs float64 `json:"client_timeout_ms"`
		} `json:"capacity"`
		Admission struct {
			MaxConcurrent  int     `json:"max_concurrent"`
			MaxQueue       int     `json:"max_queue"`
			QueueTimeoutMs float64 `json:"queue_timeout_ms"`
		} `json:"admission"`
		Uncontended loadgen.PhaseReport `json:"uncontended"`
		Sustainable loadgen.PhaseReport `json:"sustainable"`
		Overload    struct {
			OfferedRPS float64             `json:"offered_rps"`
			Baseline   loadgen.PhaseReport `json:"baseline"`
			Admitted   loadgen.PhaseReport `json:"admitted"`
			Shed       int64               `json:"admission_shed_total"`
			AdmittedN  int64               `json:"admission_admitted_total"`
		} `json:"overload_2x"`
		KilledNode struct {
			Healthy     loadgen.PhaseReport `json:"healthy_phase"`
			Killed      loadgen.PhaseReport `json:"killed_phase"`
			ElapsedS    float64             `json:"elapsed_s"`
			BudgetS     float64             `json:"budget_s"`
			CompletedOK bool                `json:"completed_within_budget"`
		} `json:"killed_node"`
	}{
		Description: "Serving under load: uncontended vs sustainable vs 2x-overload latency/goodput with and without admission control (per-tenant token buckets + bounded-concurrency limiter shedding 429s), plus loadgen completion against a killed backend node. Regenerate with `make bench-serving`.",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iters:       iters,
	}
	doc.Capacity.Slots = slots
	doc.Capacity.PerGetMs = float64(perGet) / float64(time.Millisecond)
	doc.Capacity.PatienceMs = float64(patience) / float64(time.Millisecond)
	doc.Admission.MaxConcurrent = admitOpts.MaxConcurrent
	doc.Admission.MaxQueue = admitOpts.MaxQueue
	doc.Admission.QueueTimeoutMs = float64(admitOpts.QueueTimeout) / float64(time.Millisecond)
	doc.Uncontended = uncontended.Total
	doc.Sustainable = sustained.Total
	doc.Overload.OfferedRPS = offered
	doc.Overload.Baseline = baseline.Total
	doc.Overload.Admitted = admitted.Total
	doc.Overload.Shed = shedTotal
	doc.Overload.AdmittedN = admittedTotal
	for _, ph := range killed.Phases {
		if ph.Name == "healthy" {
			doc.KilledNode.Healthy = ph
		}
	}
	doc.KilledNode.Killed = killedPhase
	doc.KilledNode.ElapsedS = killElapsed.Seconds()
	doc.KilledNode.BudgetS = killBudget.Seconds()
	doc.KilledNode.CompletedOK = killElapsed < killBudget

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("uncontended p99 %.1fms; sustainable %.1f/s", uncontended.Total.P99ms, sustained.Total.Goodput)
	t.Logf("overload @%.1f/s: baseline p99 %.1fms goodput %.1f/s | admitted p99 %.1fms goodput %.1f/s (%d shed)",
		offered, baseline.Total.P99ms, baseline.Total.Goodput,
		admitted.Total.P99ms, admitted.Total.Goodput, admitted.Total.Shed)
	t.Logf("killed node: run finished in %.1fs (budget %.1fs), killed phase: %d ok / %d shed / %d degraded",
		killElapsed.Seconds(), killBudget.Seconds(),
		killedPhase.OK, killedPhase.Shed, killedPhase.ClientE+killedPhase.ServerE+killedPhase.Failed)
	t.Logf("wrote %s", outPath)

	// Acceptance gates (skipped in smoke mode, where run lengths are too
	// short for stable percentiles).
	if !smoke {
		if admitted.Total.P99ms > 2*uncontended.Total.P99ms {
			t.Errorf("admitted p99 %.1fms exceeds 2x uncontended p99 %.1fms under 2x overload",
				admitted.Total.P99ms, uncontended.Total.P99ms)
		}
		if admitted.Total.Goodput < 0.9*sustained.Total.Goodput {
			t.Errorf("admitted goodput %.1f/s under 2x overload is below 90%% of sustainable %.1f/s",
				admitted.Total.Goodput, sustained.Total.Goodput)
		}
		if baseline.Total.P99ms <= 2*uncontended.Total.P99ms {
			t.Errorf("baseline did not degrade: p99 %.1fms within 2x uncontended %.1fms — the overload is not overloading",
				baseline.Total.P99ms, uncontended.Total.P99ms)
		}
		if admitted.Total.Shed == 0 || shedTotal == 0 {
			t.Error("admission shed nothing under 2x overload")
		}
	}
	if !doc.KilledNode.CompletedOK {
		t.Errorf("loadgen took %.1fs against a killed node, budget %.1fs", killElapsed.Seconds(), killBudget.Seconds())
	}
	if killedPhase.Requests > 0 && killedPhase.OK == killedPhase.Requests {
		t.Error("killed phase reported all-OK traffic; the kill did not take")
	}
}
