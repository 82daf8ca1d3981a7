package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

func TestTableIMatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunTableI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 108 {
		t.Errorf("total = %d, want 108", res.Total)
	}
	if len(res.Sessions) != 4 {
		t.Errorf("%d sessions", len(res.Sessions))
	}
	if !strings.Contains(buf.String(), "108") {
		t.Error("rendered table missing the total")
	}
}

func TestFig1AllGoalsDemonstrated(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunFig1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Goals) != 3 {
		t.Fatalf("%d goals, want 3 (Fig. 1)", len(res.Goals))
	}
	for goal, ok := range res.Goals {
		if !ok {
			t.Errorf("goal not demonstrated: %s", goal)
		}
	}
}

func TestFig2ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunFig2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Sites) != 8 {
		t.Errorf("%d sites, want 8", len(res.Report.Sites))
	}
	// Cross-country pairs must exceed regional pairs in RTT: the paper's
	// geo-distribution shape.
	far := res.Report.Pairs["sdsc->mghpcc"]
	near := res.Report.Pairs["sdsc->utah"]
	if far.MeanRTT <= near.MeanRTT {
		t.Errorf("RTT shape inverted: far %v <= near %v", far.MeanRTT, near.MeanRTT)
	}
	// The commercial 10 Gbps site must be the throughput constraint.
	foundCloud := false
	for _, c := range res.Constraints {
		if strings.Contains(c.Pair, "cloud") {
			foundCloud = true
		}
	}
	if !foundCloud {
		t.Error("cloud uplink not flagged as a constraint")
	}
}

func TestFig3ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunFig3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The ordering is asserted on the modelled network time: the three
	// sleeps differ by less than the conversion's CPU noise, so the wall
	// times in Sources may come out in any order on a busy machine.
	local := res.Network["local"]
	regional := res.Network["regional"]
	cross := res.Network["cross-country"]
	if !(0 < local && local < regional && regional < cross) {
		t.Errorf("network-time ordering broken: local=%v regional=%v cross=%v", local, regional, cross)
	}
	for name, net := range res.Network {
		if res.Sources[name] < net {
			t.Errorf("%s: fetch+convert %v is shorter than its own network time %v", name, res.Sources[name], net)
		}
	}
}

func TestFig4WorkflowCompletes(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunFig4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trail.Failed() {
		t.Fatalf("workflow failed:\n%s", res.Trail)
	}
	for _, step := range []string{"generate", "convert", "validate", "visualize"} {
		if _, ok := res.StepElapsed[step]; !ok {
			t.Errorf("step %s missing from trail", step)
		}
	}
}

func TestFig5TiledCorrectAndScales(t *testing.T) {
	if testing.Short() {
		t.Skip("1024x1024 terrain sweep")
	}
	var buf bytes.Buffer
	res, err := RunFig5(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Error("tiled output diverged from untiled baseline")
	}
	// Shape: with >1 cores, 8 workers must beat 1 worker. On a single
	// core, wall-clock parallel speedup is physically unavailable, so we
	// only require that tiling overhead stays bounded.
	if res.Cores > 1 {
		if res.TiledElapsed[8] >= res.TiledElapsed[1] {
			t.Errorf("no scaling on %d cores: 1w=%v 8w=%v", res.Cores, res.TiledElapsed[1], res.TiledElapsed[8])
		}
	} else if res.TiledElapsed[1] > res.UntiledElapsed*3 {
		t.Errorf("tiling overhead too high: untiled=%v tiled(1w)=%v", res.UntiledElapsed, res.TiledElapsed[1])
	}
}

func TestFig6AllIdentical(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunFig6(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 4 {
		t.Fatalf("%d reports", len(res.Reports))
	}
	for name, rep := range res.Reports {
		if !rep.Identical {
			t.Errorf("%s: lossless path not identical: %s", name, rep)
		}
		if rep.SSIM < 0.999 {
			t.Errorf("%s: SSIM %v", name, rep.SSIM)
		}
	}
}

func TestFig7ProgressiveAndCacheShape(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunFig7(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes fetched must grow with refinement level.
	levels := sortedIntKeys(res.LevelBytes)
	if len(levels) < 3 {
		t.Fatalf("only %d refinement levels", len(levels))
	}
	for i := 1; i < len(levels); i++ {
		if res.LevelBytes[levels[i]] < res.LevelBytes[levels[i-1]] {
			t.Errorf("bytes not monotone across levels: %v", res.LevelBytes)
		}
	}
	// Warm cache must beat the cold remote pass by a wide margin.
	if res.WarmElapsed*5 > res.ColdElapsed {
		t.Errorf("cache ineffective: cold=%v warm=%v", res.ColdElapsed, res.WarmElapsed)
	}
}

func TestFig8OverwhelminglyPositive(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunFig8(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Distributions) != 4 {
		t.Fatalf("%d charts, want 4", len(res.Distributions))
	}
	for _, d := range res.Distributions {
		if d.N() != 108 {
			t.Errorf("question %s: n=%d", d.Question.ID, d.N())
		}
		if d.PercentPositive() < 0.75 {
			t.Errorf("question %s: positive=%v", d.Question.ID, d.PercentPositive())
		}
	}
}

func TestClaim20ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("1024x512 four-parameter conversion")
	}
	var buf bytes.Buffer
	res, err := RunClaim20(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllIdentical {
		t.Error("accuracy not preserved")
	}
	// The paper reports ~20%; accept a generous band around it since our
	// codec stack differs, but the direction (IDX smaller) must hold.
	if res.MeanReduction <= 0.05 {
		t.Errorf("mean reduction %.1f%%, want clearly positive (~20%% in the paper)", 100*res.MeanReduction)
	}
	if res.MeanReduction >= 0.6 {
		t.Errorf("mean reduction %.1f%% implausibly high", 100*res.MeanReduction)
	}
}

func TestClaimCacheShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunClaimCache(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The claim is asserted on what each pass asked of the remote store,
	// not on wall clock: host load (or the race detector) moves Cold and
	// Warm, it cannot make a cached pass touch the network.
	if res.ColdOps <= 0 || res.ColdWait <= 0 {
		t.Errorf("cold pass sent %d remote ops and waited %v, want both > 0", res.ColdOps, res.ColdWait)
	}
	if res.WarmOps != 0 || res.WarmWait != 0 {
		t.Errorf("warm pass sent %d remote ops and waited %v, want none", res.WarmOps, res.WarmWait)
	}
	if res.HitRate < 0.4 {
		t.Errorf("hit rate %v", res.HitRate)
	}
}

func TestClaimCloudShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunClaimCloud(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cheap, okC := res.PerPolicy["cheapest"]
	fast, okF := res.PerPolicy["fastest"]
	if !okC || !okF {
		t.Fatalf("policies missing: %+v", res.PerPolicy)
	}
	if cheap.CostUSD != 0 {
		t.Errorf("cheapest policy spent $%.2f; academic capacity should cover 24 nodes", cheap.CostUSD)
	}
	if fast.CostUSD <= 0 {
		t.Errorf("fastest policy spent nothing; expected commercial nodes")
	}
	if fast.Makespan >= cheap.Makespan {
		t.Errorf("fastest (%v) not quicker than cheapest (%v)", fast.Makespan, cheap.Makespan)
	}
	if cheap.Nodes != 24 || fast.Nodes != 24 {
		t.Errorf("node counts: %d / %d", cheap.Nodes, fast.Nodes)
	}
}

func TestAllRunsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	start := time.Now()
	if err := All(io.Discard); err != nil {
		t.Fatal(err)
	}
	t.Logf("full sweep in %v", time.Since(start))
}

func TestRunnersCoverEveryExperimentID(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "tableI", "claim20", "claimcache", "claimcloud"}
	got := Runners()
	if len(got) != len(want) {
		t.Fatalf("%d runners, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.ID != want[i] {
			t.Errorf("runner %d = %s, want %s", i, r.ID, want[i])
		}
	}
}
