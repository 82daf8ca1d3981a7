package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"
)

// This file is the lint acceptance harness: it measures what the
// analyzer suite costs — module load/type-check time, per-analyzer
// wall time over every package (with the slowest packages broken out),
// and the findings count — and writes BENCH_lint.json, so lint runtime
// joins the repo's perf trajectory alongside the read-path, cache, and
// shard benchmarks. The flow-sensitive analyzers (spanend, lockorder,
// ctxleak — three specs of the obligation engine) share one CFG per
// function and each run a dataflow fixpoint over it, so their cost is
// the one to watch as the codebase grows.

type benchAnalyzer struct {
	Name       string  `json:"name"`
	TotalMs    float64 `json:"total_ms"`
	Findings   int     `json:"findings"`
	SlowestPkg []struct {
		Pkg string  `json:"pkg"`
		Ms  float64 `json:"ms"`
	} `json:"slowest_packages"`
}

func TestBenchLintEmit(t *testing.T) {
	iters, _ := strconv.Atoi(os.Getenv("NSDF_BENCH_LINT_ITERS"))
	if iters <= 0 {
		t.Skip("set NSDF_BENCH_LINT_ITERS>=1 to run the lint benchmark emitter")
	}
	outPath := os.Getenv("NSDF_BENCH_LINT_OUT")
	if outPath == "" {
		outPath = filepath.Join(t.TempDir(), "BENCH_lint.json")
	}

	root := moduleRoot(t)
	loadStart := time.Now()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	loadMs := float64(time.Since(loadStart).Microseconds()) / 1000

	// One iteration is one whole run of the suite, as the driver makes
	// it: the flow-sensitive analyzers share each function's CFG, so the
	// first of them to visit a body pays for building it. Clearing the
	// cache per iteration keeps that cost in the numbers. Per (analyzer,
	// package) wall time is the minimum over iterations, so a GC pause in
	// one round doesn't smear them.
	suite := Analyzers()
	perPkg := make([][]float64, len(suite))
	for ai := range perPkg {
		perPkg[ai] = make([]float64, len(pkgs))
	}
	findings := make([]int, len(suite))
	for it := 0; it < iters; it++ {
		for _, pkg := range pkgs {
			pkg.graphs = nil
		}
		for ai, a := range suite {
			var fs []Finding
			var errs []error
			state := make(map[string]any)
			for i, pkg := range pkgs {
				pass := &Pass{Analyzer: a, Pkg: pkg, State: state, findings: &fs, errs: &errs}
				t0 := time.Now()
				a.Run(pass)
				ms := float64(time.Since(t0).Microseconds()) / 1000
				if it == 0 || ms < perPkg[ai][i] {
					perPkg[ai][i] = ms
				}
			}
			if a.Finish != nil {
				a.Finish(&Pass{Analyzer: a, State: state, findings: &fs, errs: &errs})
			}
			if len(errs) > 0 {
				t.Fatalf("analyzer %s internal error: %v", a.Name, errs[0])
			}
			findings[ai] = len(fs)
		}
	}
	totalFindings := 0
	var analyzers []benchAnalyzer
	for ai, a := range suite {
		total := 0.0
		type pkgMs struct {
			pkg string
			ms  float64
		}
		ranked := make([]pkgMs, len(pkgs))
		for i, pkg := range pkgs {
			total += perPkg[ai][i]
			ranked[i] = pkgMs{pkg: pkg.Path, ms: perPkg[ai][i]}
		}
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].ms > ranked[j].ms })
		ba := benchAnalyzer{Name: a.Name, TotalMs: round2(total), Findings: findings[ai]}
		for _, r := range ranked[:min(5, len(ranked))] {
			ba.SlowestPkg = append(ba.SlowestPkg, struct {
				Pkg string  `json:"pkg"`
				Ms  float64 `json:"ms"`
			}{Pkg: r.pkg, Ms: round2(r.ms)})
		}
		analyzers = append(analyzers, ba)
		totalFindings += findings[ai]
	}

	out := struct {
		Description   string          `json:"description"`
		GoMaxProcs    int             `json:"gomaxprocs"`
		Iterations    int             `json:"iterations"`
		Packages      int             `json:"packages"`
		LoadMs        float64         `json:"load_and_typecheck_ms"`
		TotalFindings int             `json:"total_findings"`
		Analyzers     []benchAnalyzer `json:"analyzers"`
	}{
		Description: "nsdf-lint analyzer suite over the whole module: load/type-check cost, " +
			"per-analyzer wall time (min over iterations) with the slowest packages broken out, and " +
			"pre-suppression findings count. The three flow-sensitive analyzers (spanend, lockorder, " +
			"ctxleak) are specs of one obligation engine: each function's CFG is built once per run, charged " +
			"to the first spec that visits the function, and each spec runs its own dataflow fixpoint over it. " +
			"Regenerate with `make bench-lint`.",
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Iterations:    iters,
		Packages:      len(pkgs),
		LoadMs:        round2(loadMs),
		TotalFindings: totalFindings,
		Analyzers:     analyzers,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d packages, %d analyzers, load %.1fms", outPath, len(pkgs), len(analyzers), loadMs)
}

func round2(f float64) float64 {
	return float64(int(f*100+0.5)) / 100
}
