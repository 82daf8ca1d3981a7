package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is where the metric directions and regression bounds
// live; -compare is run from the repository root like the benchmark.
const benchmarkFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRuns collects, from a file of -out lines, every untraced run's
// value of each metric, keyed by workload then metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<30) // traced lines carry their spans
	for sc.Scan() {
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Trace {
			continue
		}
		if runs[rep.Workload] == nil {
			runs[rep.Workload] = make(map[string][]float64)
		}
		for name, m := range rep.Metrics {
			runs[rep.Workload][name] = append(runs[rep.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does, which is what the driver uses.
// Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict compares side b with side a for one metric on one workload:
// "regressed" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's own runs spread wider than the bound
// (so the difference cannot be told from noise), "ok" otherwise.
func verdict(spec metricSpec, a, b []float64) (string, float64, float64) {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma)
	if spec.Better == "higher" {
		worse = -worse
	}
	sp := max(spread(a), spread(b))
	switch {
	case sp > spec.Bound:
		return "unresolved", worse, sp
	case worse > spec.Bound:
		return "regressed", worse, sp
	}
	return "ok", worse, sp
}

// compareFiles prints one row per end-to-end metric and workload and
// returns 1 if any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	return printComparison(spec, a, b, stdout)
}

func printComparison(spec *benchmarkSpec, a, b map[string]map[string][]float64, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-16s %-22s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, sp := verdict(m, va, vb)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.4f %14.4f %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, median(va), median(vb),
				100*worse, 100*sp, 100*m.Bound, v)
		}
	}
	return code
}
