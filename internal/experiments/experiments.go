// Package experiments regenerates every table and figure of the tutorial
// paper (see DESIGN.md §4 for the experiment index). Each Run* function
// drives the relevant modules end to end, prints the artifact in the
// paper's shape to the supplied writer, and returns the measured numbers
// so tests and benchmarks can assert on them. cmd/nsdf-experiments is the
// CLI wrapper; bench_test.go at the repository root wraps each run in a
// testing.B benchmark.
package experiments

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"nsdfgo/internal/cache"
	"nsdfgo/internal/cloudsim"
	"nsdfgo/internal/convert"
	"nsdfgo/internal/core"
	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/metrics"
	"nsdfgo/internal/netmon"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/storage"
	"nsdfgo/internal/survey"
	"nsdfgo/internal/tiff"
)

// Seed fixes every synthetic input so reruns are identical.
const Seed = 20240624

// TableIResult carries the regenerated participant table.
type TableIResult struct {
	// Sessions are the four tutorial deliveries.
	Sessions []survey.Session
	// Total is the participant sum (paper: 108).
	Total int
}

// RunTableI regenerates Table I (participants per session).
func RunTableI(_ context.Context, w io.Writer) (TableIResult, error) {
	sessions := survey.PaperSessions()
	fmt.Fprintln(w, "== Table I: participants and professional backgrounds across tutorial presentations ==")
	fmt.Fprint(w, survey.RenderTable(sessions))
	return TableIResult{Sessions: sessions, Total: survey.Total(sessions)}, nil
}

// Fig1Result reports the capability self-test behind the goals figure.
type Fig1Result struct {
	// Goals maps each tutorial goal to whether the stack demonstrates it.
	Goals map[string]bool
}

// RunFig1 regenerates Fig. 1 as a capability checklist: each tutorial
// goal is exercised against the library and reported.
func RunFig1(ctx context.Context, w io.Writer) (Fig1Result, error) {
	fmt.Fprintln(w, "== Fig. 1: tutorial goals, demonstrated against the library ==")
	res := Fig1Result{Goals: map[string]bool{}}

	// Goal 1: construct a modular workflow on top of NSDF.
	fabric := core.NewFabric()
	wf, err := fabric.TutorialWorkflow(core.TutorialConfig{Width: 64, Height: 32, Seed: Seed})
	if err != nil {
		return res, err
	}
	_, trail, err := wf.Run(ctx)
	res.Goals["construct a modular workflow on top of NSDF"] = err == nil && !trail.Failed()

	// Goal 2: upload, download, and stream data (public + private).
	priv := storage.NewMemStore()
	upErr := priv.Put(ctx, "probe/object", []byte("payload"))
	_, downErr := priv.Get(ctx, "probe/object")
	res.Goals["upload, download, and stream data"] = upErr == nil && downErr == nil

	// Goal 3: deploy NSDF services such as the NSDF-dashboard.
	dashboardOK := false
	if bbEngine, err2 := func() (*query.Engine, error) {
		bb, _, err := wf.Run(ctx)
		if err != nil {
			return nil, err
		}
		return core.Fetch[*query.Engine](bb, core.KeyEngine)
	}(); err2 == nil && bbEngine != nil {
		dashboardOK = true
	}
	res.Goals["deploy NSDF services such as the NSDF-dashboard"] = dashboardOK

	for _, goal := range sortedKeys(res.Goals) {
		status := "FAIL"
		if res.Goals[goal] {
			status = "ok"
		}
		fmt.Fprintf(w, "  [%-4s] %s\n", status, goal)
	}
	return res, nil
}

// Fig2Result carries the testbed measurement campaign.
type Fig2Result struct {
	// Report is the full-mesh probe aggregation.
	Report *netmon.Report
	// Constraints are the flagged pairs under the paper-era requirements.
	Constraints []netmon.Constraint
}

// RunFig2 regenerates Fig. 2: the NSDF testbed structure with its
// computing/networking/storage services, reported as the NSDF-Plugin's
// latency and throughput matrices plus the flagged constraints.
func RunFig2(_ context.Context, w io.Writer) (Fig2Result, error) {
	net, err := netmon.NewNetwork(netmon.Testbed(), Seed)
	if err != nil {
		return Fig2Result{}, err
	}
	rep, err := net.Measure(20)
	if err != nil {
		return Fig2Result{}, err
	}
	fmt.Fprintln(w, "== Fig. 2: NSDF testbed structure (8 entry points, full-mesh probes) ==")
	fmt.Fprint(w, rep.LatencyMatrix())
	fmt.Fprintln(w)
	fmt.Fprint(w, rep.ThroughputMatrix())
	cons := rep.Constraints(60*time.Millisecond, 15e9)
	fmt.Fprintf(w, "\nconstraints (RTT > 60ms or throughput < 15 Gbps): %d pairs\n", len(cons))
	for _, c := range cons {
		fmt.Fprintf(w, "  %-16s %s\n", c.Pair, c.Reason)
	}
	return Fig2Result{Report: rep, Constraints: cons}, nil
}

// Fig3Result carries the cross-environment conversion measurements.
type Fig3Result struct {
	// Sources maps each source environment to its fetch+convert time.
	Sources map[string]time.Duration
	// Network maps each source environment to the modelled network time
	// of its fetch (the wait storage.Conditioned booked), the part of
	// Sources that differs between environments and does not depend on
	// how fast this machine converts.
	Network map[string]time.Duration
	// Bytes is the TIFF payload size converted from each source.
	Bytes int64
}

// RunFig3 regenerates Fig. 3: the data conversion process across
// environments — the same TIFF is fetched over three of the testbed's
// links (local sdsc->sdsc, regional sdsc->utah, cross-country
// sdsc->mghpcc) and converted to IDX, timing each path.
func RunFig3(ctx context.Context, w io.Writer) (Fig3Result, error) {
	fmt.Fprintln(w, "== Fig. 3: data conversion across storage environments ==")
	g := dem.Scale(dem.FBM(256, 256, Seed, dem.DefaultFBM()), 0, 2000)
	var tiffBuf bytes.Buffer
	if err := tiff.Encode(&tiffBuf, tiff.FromGrid(g), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
		return Fig3Result{}, err
	}
	payload := tiffBuf.Bytes()

	pairs := map[string][2]string{
		"local":         {"sdsc", "sdsc"},
		"regional":      {"sdsc", "utah"},
		"cross-country": {"sdsc", "mghpcc"},
	}
	res := Fig3Result{Sources: map[string]time.Duration{}, Network: map[string]time.Duration{}, Bytes: int64(len(payload))}
	for _, name := range sortedKeys(pairs) {
		src, err := testbedStore(pairs[name][0], pairs[name][1])
		if err != nil {
			return res, err
		}
		if err := src.Put(ctx, "terrain/elevation.tif", payload); err != nil {
			return res, err
		}
		uploadWait := src.Stats().TotalWait
		start := time.Now()
		data, err := src.Get(ctx, "terrain/elevation.tif")
		if err != nil {
			return res, err
		}
		res.Network[name] = src.Stats().TotalWait - uploadWait
		im, err := tiff.DecodeBytes(data)
		if err != nil {
			return res, err
		}
		inputs := []convert.Input{{FieldName: "elevation", Grid: im.Grid()}}
		if _, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(storage.NewMemStore(), ""), inputs, convert.IDXOptions{}); err != nil {
			return res, err
		}
		res.Sources[name] = time.Since(start)
		fmt.Fprintf(w, "  %-14s fetch+convert %8.1fms, of which network %7.3fms  (%d TIFF bytes)\n",
			name, float64(res.Sources[name])/1e6, float64(res.Network[name])/1e6, len(payload))
	}
	return res, nil
}

// Fig4Result carries the four-step workflow run.
type Fig4Result struct {
	// Trail is the provenance record.
	Trail *core.Trail
	// StepElapsed maps step name to duration.
	StepElapsed map[string]time.Duration
}

// RunFig4 regenerates Fig. 4: the four sequential workflow steps, timed
// and recorded in a provenance trail.
func RunFig4(ctx context.Context, w io.Writer) (Fig4Result, error) {
	fabric := core.NewFabric()
	wf, err := fabric.TutorialWorkflow(core.TutorialConfig{Width: 256, Height: 128, Seed: Seed})
	if err != nil {
		return Fig4Result{}, err
	}
	_, trail, err := wf.Run(ctx)
	if err != nil {
		return Fig4Result{}, err
	}
	fmt.Fprintln(w, "== Fig. 4: four-step modular workflow (generate -> convert -> validate -> visualize) ==")
	fmt.Fprint(w, trail.String())
	res := Fig4Result{Trail: trail, StepElapsed: map[string]time.Duration{}}
	for _, r := range trail.Records {
		res.StepElapsed[r.Step] = r.Elapsed
	}
	return res, nil
}

// Fig5Result carries the GEOtiled scaling measurements.
type Fig5Result struct {
	// UntiledElapsed is the single-pass baseline.
	UntiledElapsed time.Duration
	// TiledElapsed maps worker count to the tiled runtime.
	TiledElapsed map[int]time.Duration
	// Identical reports that every tiled output matched the baseline.
	Identical bool
	// Cores is GOMAXPROCS at run time; wall-clock speedup is only
	// expected when it exceeds 1.
	Cores int
}

// RunFig5 regenerates Fig. 5: GEOtiled terrain-parameter generation —
// tiled computation across worker counts versus the untiled baseline,
// with bit-for-bit accuracy preservation checked. A cancelled ctx stops
// the sweep before the next worker count.
func RunFig5(ctx context.Context, w io.Writer) (Fig5Result, error) {
	fmt.Fprintln(w, "== Fig. 5: GEOtiled terrain generation (tiled vs untiled, accuracy preserved) ==")
	d := dem.Scale(dem.FBM(1024, 1024, Seed, dem.DefaultFBM()), 0, 2500)
	res := Fig5Result{TiledElapsed: map[int]time.Duration{}, Identical: true, Cores: runtime.GOMAXPROCS(0)}
	fmt.Fprintf(w, "  available cores: %d\n", res.Cores)

	start := time.Now()
	base, err := geotiled.Compute(d, geotiled.Slope, geotiled.Options{})
	if err != nil {
		return res, err
	}
	res.UntiledElapsed = time.Since(start)
	fmt.Fprintf(w, "  untiled baseline: %8.1fms\n", float64(res.UntiledElapsed)/1e6)

	for _, workers := range []int{1, 2, 4, 8} {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		start = time.Now()
		tiled, err := geotiled.ComputeTiled(d, geotiled.Slope, geotiled.Options{TileSize: 256, Workers: workers})
		if err != nil {
			return res, err
		}
		elapsed := time.Since(start)
		res.TiledElapsed[workers] = elapsed
		same := raster.Equal(base, tiled)
		if !same {
			res.Identical = false
		}
		fmt.Fprintf(w, "  tiled %d workers: %8.1fms  speedup %.2fx  identical=%v\n",
			workers, float64(elapsed)/1e6, float64(res.UntiledElapsed)/float64(elapsed), same)
	}
	return res, nil
}

// Fig6Result carries the static-validation metrics.
type Fig6Result struct {
	// Reports maps each terrain parameter to its TIFF-vs-IDX comparison.
	Reports map[string]metrics.Report
}

// RunFig6 regenerates Fig. 6: static visualization validation — the
// original TIFF-based rasters compared to the IDX round trip with
// scientific metrics. The lossless path must be identical.
func RunFig6(ctx context.Context, w io.Writer) (Fig6Result, error) {
	fmt.Fprintln(w, "== Fig. 6: static validation of TIFF-derived vs IDX-derived rasters ==")
	d := dem.Tennessee(512, 256, Seed)
	res := Fig6Result{Reports: map[string]metrics.Report{}}
	for _, p := range geotiled.TutorialParams {
		g, err := geotiled.ComputeTiled(d, p, geotiled.Options{})
		if err != nil {
			return res, err
		}
		// TIFF round trip.
		var buf bytes.Buffer
		if err := tiff.Encode(&buf, tiff.FromGrid(g), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
			return res, err
		}
		im, err := tiff.DecodeBytes(buf.Bytes())
		if err != nil {
			return res, err
		}
		// IDX round trip.
		inputs := []convert.Input{{FieldName: p.String(), Grid: im.Grid()}}
		ds, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(storage.NewMemStore(), ""), inputs, convert.IDXOptions{})
		if err != nil {
			return res, err
		}
		back, _, err := ds.ReadFull(ctx, p.String(), 0)
		if err != nil {
			return res, err
		}
		rep, err := metrics.Compare(g.Data, back.Data, g.W, g.H)
		if err != nil {
			return res, err
		}
		res.Reports[p.String()] = rep
		fmt.Fprintf(w, "  %-10s %s\n", p, rep)
	}
	return res, nil
}

// Fig7Result carries the dashboard interaction measurements.
type Fig7Result struct {
	// LevelBytes maps resolution level to bytes fetched for a pan/zoom mix.
	LevelBytes map[int]int64
	// ColdElapsed and WarmElapsed time the same interaction mix against a
	// cross-country store with a cold and a warm cache.
	ColdElapsed, WarmElapsed time.Duration
	// ColdOps, WarmOps, ColdWait and WarmWait are as in ClaimCacheResult.
	ColdOps, WarmOps   int64
	ColdWait, WarmWait time.Duration
}

// RunFig7 regenerates Fig. 7: the interactive dashboard session — a
// zoom/pan/snip interaction mix against a remote (conditioned) store,
// showing progressive refinement costs and the effect of the cache.
func RunFig7(ctx context.Context, w io.Writer) (Fig7Result, error) {
	fmt.Fprintln(w, "== Fig. 7: interactive dashboard session against a remote store ==")
	remote, err := testbedStore("sdsc", "mghpcc")
	if err != nil {
		return Fig7Result{}, err
	}
	g := dem.Scale(dem.FBM(512, 512, Seed, dem.DefaultFBM()), 0, 3000)
	ds, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(remote, "conus"),
		[]convert.Input{{FieldName: "elevation", Grid: g}}, convert.IDXOptions{BitsPerBlock: 12})
	if err != nil {
		return Fig7Result{}, err
	}
	engine := query.New(ds, 64<<20)

	res := Fig7Result{LevelBytes: map[int]int64{}}
	interact := func(recordLevels bool) error {
		// Zoomed-out overview, progressively refined. Only the cold pass
		// reflects real transfers, so only it records the (cumulative)
		// fetch volume per refinement level.
		var fetched int64
		err := engine.Progressive(ctx, query.Request{Field: "elevation", Level: query.LevelFull}, 6, 4, func(r query.Result) error {
			fetched += r.Stats.BytesRead
			if recordLevels {
				res.LevelBytes[r.Level] = fetched
			}
			return nil
		})
		if err != nil {
			return err
		}
		// Pan: four quadrant reads at a medium level.
		quadrants := []idx.Box{
			{X0: 0, Y0: 0, X1: 256, Y1: 256},
			{X0: 256, Y0: 0, X1: 512, Y1: 256},
			{X0: 0, Y0: 256, X1: 256, Y1: 512},
			{X0: 256, Y0: 256, X1: 512, Y1: 512},
		}
		for _, b := range quadrants {
			if _, err := engine.Read(ctx, query.Request{Field: "elevation", Box: b, Level: 14}); err != nil {
				return err
			}
		}
		// Snip: full-resolution crop of the centre.
		_, err = engine.Read(ctx, query.Request{Field: "elevation", Box: idx.Box{X0: 192, Y0: 192, X1: 320, Y1: 320}, Level: query.LevelFull})
		return err
	}
	if res.ColdElapsed, res.ColdOps, res.ColdWait, err = remotePass(remote, func() error { return interact(true) }); err != nil {
		return res, err
	}
	if res.WarmElapsed, res.WarmOps, res.WarmWait, err = remotePass(remote, func() error { return interact(false) }); err != nil {
		return res, err
	}
	for _, level := range sortedKeys(res.LevelBytes) {
		fmt.Fprintf(w, "  refine to level %2d: %8d compressed bytes fetched (cumulative)\n", level, res.LevelBytes[level])
	}
	fmt.Fprintf(w, "  interaction mix: cold cache %8.1fms (%d remote ops, %.1fms network), warm cache %8.1fms (%d remote ops) (%.0fx)\n",
		float64(res.ColdElapsed)/1e6, res.ColdOps, float64(res.ColdWait)/1e6, float64(res.WarmElapsed)/1e6, res.WarmOps,
		float64(res.ColdElapsed)/float64(max(1, res.WarmElapsed)))
	return res, nil
}

// Fig8Result carries the survey distributions.
type Fig8Result struct {
	// Distributions are the four question histograms.
	Distributions []survey.Distribution
}

// RunFig8 regenerates Fig. 8: the four survey charts, synthesised for the
// 108 participants of Table I under the paper's "overwhelmingly positive"
// calibration.
func RunFig8(_ context.Context, w io.Writer) (Fig8Result, error) {
	n := survey.Total(survey.PaperSessions())
	dists := survey.SynthesizeResponses(survey.Fig8Questions(), n, Seed)
	fmt.Fprintln(w, "== Fig. 8: tutorial survey responses (user experience & technology exposure) ==")
	for i := range dists {
		fmt.Fprint(w, survey.RenderChart(&dists[i], 40))
	}
	return Fig8Result{Distributions: dists}, nil
}

// Claim20Result carries the size-reduction measurements.
type Claim20Result struct {
	// TIFFBytes and IDXBytes map parameter name to stored size.
	TIFFBytes, IDXBytes map[string]int64
	// MeanReduction is 1 - sum(idx)/sum(tiff).
	MeanReduction float64
	// AllIdentical confirms accuracy preservation.
	AllIdentical bool
}

// RunClaim20 measures the paper's §IV-B claim: "converting files from
// TIFF to IDX reduces file size by approximately 20% while preserving
// data accuracy". Both containers hold the same float32 samples with
// DEFLATE compression; IDX's HZ reordering groups spatially-coherent
// samples, which is where the additional reduction comes from.
func RunClaim20(ctx context.Context, w io.Writer) (Claim20Result, error) {
	fmt.Fprintln(w, "== Claim §IV-B: TIFF -> IDX size reduction with accuracy preserved ==")
	d := dem.Tennessee(1024, 512, Seed)
	res := Claim20Result{TIFFBytes: map[string]int64{}, IDXBytes: map[string]int64{}, AllIdentical: true}
	var tiffTotal, idxTotal int64
	for _, p := range geotiled.TutorialParams {
		g, err := geotiled.ComputeTiled(d, p, geotiled.Options{})
		if err != nil {
			return res, err
		}
		var buf bytes.Buffer
		if err := tiff.Encode(&buf, tiff.FromGrid(g), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
			return res, err
		}
		res.TIFFBytes[p.String()] = int64(buf.Len())
		tiffTotal += int64(buf.Len())

		ds, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(storage.NewMemStore(), ""), []convert.Input{{FieldName: p.String(), Grid: g}}, convert.IDXOptions{})
		if err != nil {
			return res, err
		}
		n, err := ds.StoredBytes(ctx, p.String(), 0)
		if err != nil {
			return res, err
		}
		res.IDXBytes[p.String()] = n
		idxTotal += n

		back, _, err := ds.ReadFull(ctx, p.String(), 0)
		if err != nil {
			return res, err
		}
		if !raster.Equal(g, back) {
			res.AllIdentical = false
		}
		fmt.Fprintf(w, "  %-10s TIFF %9d B   IDX %9d B   reduction %5.1f%%\n",
			p, buf.Len(), n, 100*(1-float64(n)/float64(buf.Len())))
	}
	res.MeanReduction = 1 - float64(idxTotal)/float64(tiffTotal)
	fmt.Fprintf(w, "  overall: %5.1f%% size reduction, accuracy preserved=%v (paper: ~20%%)\n",
		100*res.MeanReduction, res.AllIdentical)
	return res, nil
}

// ClaimCacheResult carries the cold/warm remote-read comparison.
type ClaimCacheResult struct {
	// Cold and Warm time a full coarse-to-fine read against a
	// cross-country store.
	Cold, Warm time.Duration
	// ColdOps and WarmOps count the operations each pass sent to the
	// remote store; ColdWait and WarmWait are the network time the store
	// modelled for them (storage.Conditioned's TotalWait). Unlike Cold
	// and Warm they do not depend on how busy the host is: a warm pass
	// served from the cache sends nothing and waits for nothing.
	ColdOps, WarmOps   int64
	ColdWait, WarmWait time.Duration
	// HitRate is the block-cache hit rate after the warm pass.
	HitRate float64
}

// RunClaimCache measures §III-A's caching claim: warm-cache access must
// be far faster than cold remote access.
func RunClaimCache(ctx context.Context, w io.Writer) (ClaimCacheResult, error) {
	fmt.Fprintln(w, "== Claim §III-A: caching-enabled streaming (cold vs warm) ==")
	remote, err := testbedStore("sdsc", "mghpcc")
	if err != nil {
		return ClaimCacheResult{}, err
	}
	g := dem.Scale(dem.FBM(256, 256, Seed, dem.DefaultFBM()), 0, 1000)
	ds, err := convert.ToIDXWith(ctx, storage.NewIDXBackend(remote, "ds"),
		[]convert.Input{{FieldName: "elevation", Grid: g}}, convert.IDXOptions{BitsPerBlock: 12})
	if err != nil {
		return ClaimCacheResult{}, err
	}
	blocks := cache.NewMemTiered(64 << 20)
	ds.SetCache(blocks)
	var res ClaimCacheResult
	read := func() error {
		_, _, err := ds.ReadFull(ctx, "elevation", 0)
		return err
	}
	if res.Cold, res.ColdOps, res.ColdWait, err = remotePass(remote, read); err != nil {
		return res, err
	}
	if res.Warm, res.WarmOps, res.WarmWait, err = remotePass(remote, read); err != nil {
		return res, err
	}
	res.HitRate = blocks.Stats().HitRate()
	fmt.Fprintf(w, "  cold %8.1fms (%d remote ops, %.1fms network)   warm %8.3fms (%d remote ops)   speedup %.0fx   hit rate %.2f\n",
		float64(res.Cold)/1e6, res.ColdOps, float64(res.ColdWait)/1e6, float64(res.Warm)/1e6, res.WarmOps,
		float64(res.Cold)/float64(max(1, res.Warm)), res.HitRate)
	return res, nil
}

// ClaimCloudResult carries the multi-cloud acquisition comparison.
type ClaimCloudResult struct {
	// PerPolicy maps policy name to its outcome.
	PerPolicy map[string]CloudOutcome
}

// CloudOutcome summarises one acquisition policy's run.
type CloudOutcome struct {
	// Clusters is the number of provider allocations used.
	Clusters int
	// Nodes is the total node count.
	Nodes int
	// Makespan is the slowest cluster's boot+compute span.
	Makespan time.Duration
	// CostUSD is the total commercial spend.
	CostUSD float64
}

// RunClaimCloud exercises the NSDF-Cloud service (cited as the fabric's
// ad-hoc compute layer): a GEOtiled-scale bundle of 400 tile tasks is
// scheduled on 24 nodes acquired across academic and commercial clouds
// under both policies. Expected shape: Cheapest spends (near) zero
// dollars; Fastest finishes sooner thanks to quick-booting commercial
// capacity.
func RunClaimCloud(_ context.Context, w io.Writer) (ClaimCloudResult, error) {
	fmt.Fprintln(w, "== NSDF-Cloud: ad-hoc clusters across academic and commercial clouds ==")
	tasks := make([]cloudsim.Task, 400)
	for i := range tasks {
		tasks[i] = cloudsim.Task{ID: fmt.Sprintf("tile-%03d", i), Work: 0.02} // 8 core-hours total
	}
	res := ClaimCloudResult{PerPolicy: map[string]CloudOutcome{}}
	for _, pol := range []struct {
		name   string
		policy cloudsim.Policy
	}{{"cheapest", cloudsim.Cheapest}, {"fastest", cloudsim.Fastest}} {
		sim, err := cloudsim.NewSim(cloudsim.DefaultProviders(), Seed)
		if err != nil {
			return res, err
		}
		clusters, err := sim.AcquireBundle(24, pol.policy)
		if err != nil {
			return res, err
		}
		// Split the bundle proportionally to each cluster's slots and run.
		totalSlots := 0
		for _, c := range clusters {
			totalSlots += c.Nodes * c.Flavor.VCPUs
		}
		outcome := CloudOutcome{Clusters: len(clusters)}
		offset := 0
		for i, c := range clusters {
			outcome.Nodes += c.Nodes
			share := len(tasks) * c.Nodes * c.Flavor.VCPUs / totalSlots
			if i == len(clusters)-1 {
				share = len(tasks) - offset
			}
			if share == 0 {
				continue
			}
			rep, err := c.Run(tasks[offset : offset+share])
			if err != nil {
				return res, err
			}
			offset += share
			if rep.Elapsed > outcome.Makespan {
				outcome.Makespan = rep.Elapsed
			}
			outcome.CostUSD += rep.CostUSD
		}
		res.PerPolicy[pol.name] = outcome
		fmt.Fprintf(w, "  %-9s %d clusters, %2d nodes: makespan %7.1fmin, cost $%.2f\n",
			pol.name, outcome.Clusters, outcome.Nodes, outcome.Makespan.Minutes(), outcome.CostUSD)
	}
	return res, nil
}

// testbedStore returns an empty store behind the testbed's a->b link.
func testbedStore(a, b string) (*storage.Conditioned, error) {
	net, err := netmon.NewNetwork(netmon.Testbed(), Seed)
	if err != nil {
		return nil, err
	}
	profile, err := net.Profile(a, b)
	if err != nil {
		return nil, err
	}
	return storage.NewConditioned(storage.NewMemStore(), profile, Seed), nil
}

// remotePass runs pass against remote and returns its wall time, the
// operations it sent and the network time the store modelled for them.
func remotePass(remote *storage.Conditioned, pass func() error) (time.Duration, int64, time.Duration, error) {
	before, start := remote.Stats(), time.Now()
	err := pass()
	after := remote.Stats()
	return time.Since(start), after.Ops - before.Ops, after.TotalWait - before.TotalWait, err
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// boxed adapts a typed Run* to the one runner signature.
func boxed[T any](f func(context.Context, io.Writer) (T, error)) func(context.Context, io.Writer) (any, error) {
	return func(ctx context.Context, w io.Writer) (any, error) { return f(ctx, w) }
}

// Runners maps experiment ids (DESIGN.md §4) to their runners, in paper
// order. Each prints its table or figure to w and returns its typed
// result. The CLI's -run flag and All both draw from it.
func Runners() []struct {
	ID  string
	Run func(context.Context, io.Writer) (any, error)
} {
	return []struct {
		ID  string
		Run func(context.Context, io.Writer) (any, error)
	}{
		{"fig1", boxed(RunFig1)},
		{"fig2", boxed(RunFig2)},
		{"fig3", boxed(RunFig3)},
		{"fig4", boxed(RunFig4)},
		{"fig5", boxed(RunFig5)},
		{"fig6", boxed(RunFig6)},
		{"fig7", boxed(RunFig7)},
		{"fig8", boxed(RunFig8)},
		{"tableI", boxed(RunTableI)},
		{"claim20", boxed(RunClaim20)},
		{"claimcache", boxed(RunClaimCache)},
		{"claimcloud", boxed(RunClaimCloud)},
	}
}

// All runs every experiment in paper order and returns each one's typed
// result by id.
func All(ctx context.Context, w io.Writer) (map[string]any, error) {
	results := make(map[string]any)
	for _, r := range Runners() {
		res, err := r.Run(ctx, w)
		if err != nil {
			return results, fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
		results[r.ID] = res
		fmt.Fprintln(w)
	}
	return results, nil
}
