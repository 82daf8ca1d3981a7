package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// tinySizes keep a full run of every workload, traced and untraced,
// under a few seconds: a 64x64 dataset is one block per field and
// timestep.
var tinySizes = sizes{
	Dim: 64, Timesteps: 2, Zoom: 16,
	RasterDim: 32, Rasters: 4, SetupReps: 1,
	WarmCacheBytes: 1 << 20, ColdCacheBytes: 4 << 10,
}

func tinyOptions(t *testing.T, workload string, traced bool) runOptions {
	return runOptions{Workload: workload, Seed: 7, Seconds: 0.05, Trace: traced, Workdir: t.TempDir(), Sizes: tinySizes}
}

func specNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// TestSmokeAndNames runs every workload both ways at tiny sizes and
// checks that what it prints is exactly what BENCHMARK.json promises.
func TestSmokeAndNames(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", workloads, workloadNames)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := make(map[string]string)
	for _, s := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !valid.MatchString(s.Name) {
			t.Errorf("metric name %q is not a valid identifier", s.Name)
		}
		units[s.Name] = s.Unit
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := execute(context.Background(), tinyOptions(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			want := specNames(spec.EndToEnd)
			if traced {
				want = specNames(spec.PerLayer)
			}
			var got []string
			for name, m := range rep.Metrics {
				got = append(got, name)
				if m.Unit != units[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, name, m.Unit, units[name])
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, name, m.Value)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", w, traced, got, want)
			}
			if traced {
				if share := rep.Metrics["attributed_share"].Value; !(share <= 1) {
					t.Errorf("%s: attributed share %v above 1", w, share)
				}
				if len(rep.Spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w)
				}
			}
		}
	}
}

// TestOracleBites overwrites one stored block with another valid block
// on every replica: the stack serves it without complaint, and only the
// comparison with the source data can tell.
func TestOracleBites(t *testing.T) {
	ctx := context.Background()
	opt := tinyOptions(t, cohortWarm, false)
	h, err := newHarness(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	streams, err := genStreams(opt.Workload, opt.Sizes, opt.Seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p := h.drive(ctx, streams, window{to: len(streams)}, false); p.failed != 0 {
		t.Fatalf("intact store: %d failed: %v", p.failed, p.errs)
	}
	// A block's replicas sit on two of the three nodes, chosen per key:
	// find each slope block wherever it is, then overwrite every replica
	// of the elevation block of the same timestep and number.
	slope := make(map[string][]byte)
	swapped := 0
	for _, from := range []string{"/slope/", "/elevation/"} {
		err = filepath.WalkDir(h.st.dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.Contains(path, from) {
				return err
			}
			_, block, _ := strings.Cut(path, from)
			if from == "/slope/" {
				slope[block], err = os.ReadFile(path)
				return err
			}
			swapped++
			return os.WriteFile(path, slope[block], 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if swapped == 0 {
		t.Fatal("found no elevation block to overwrite")
	}
	h.st.tiered.Clear()
	if p := h.drive(ctx, streams, window{to: len(streams)}, false); p.failed == 0 {
		t.Fatal("every response passed although elevation blocks hold slope samples")
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "loadgen.request", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "dashboard.handler", Start: 10, End: 90, Parent: 0},
		{Name: "storage.get", Start: 20, End: 50, Parent: 1},  // overlaps the next
		{Name: "storage.get", Start: 40, End: 60, Parent: 1},  // union with previous: 20..60
		{Name: "storage.get", Start: 80, End: 120, Parent: 1}, // a hedge loser outliving its parent: clipped to 90
		{Name: "cache.peek", Start: 25, End: 30, Parent: 2},
	}
	want := []int64{20, 80 - 40 - 10, 25, 20, 40, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestResolveJoinsWhatHasNoContext(t *testing.T) {
	spans := []span{
		{Name: "loadgen.request", Start: 0, End: 100, Parent: -1, Req: 9},
		{Name: "telemetry.tracing", Start: 1, End: 99, Parent: -1, Req: 9}, // numbered from the trace header
		{Name: "dashboard.handler", Start: 5, End: 95, Parent: 1},
		{Name: "cache.peek", Start: 10, End: 11, Parent: -1}, // no context at all
		{Name: "shard.get", Start: 20, End: 40, Parent: 2},
		{Name: "storage.get", Start: 22, End: 38, Parent: 4, Node: "n1", Op: "get", Key: "k"},
		{Name: serverSpan, Start: 25, End: 35, Parent: -1, Req: 9, Node: "n1", Op: "get", Key: "k"},
		{Name: serverSpan, Start: 25, End: 35, Parent: -1, Req: 8, Node: "n1", Op: "get", Key: "k"}, // another request's
	}
	resolve(spans)
	for i, want := range []int32{-1, 0, 1, 2, 2, 4, 5, -1} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s): parent %d, want %d", i, spans[i].Name, spans[i].Parent, want)
		}
	}
	for i := range spans[:7] {
		if spans[i].Req != 9 {
			t.Errorf("span %d (%s): request %d, want 9", i, spans[i].Name, spans[i].Req)
		}
	}
}

// TestHandoffLinksCodecCalls checks the two links made by payload
// identity: fetch then decode, and encode then put.
func TestHandoffLinksCodecCalls(t *testing.T) {
	rec := newRecorder()
	fill := rec.here("cache.getorfill")
	fetched := []byte{1, 2, 3}
	rec.leave(fetched, fill)
	decode := rec.under(rec.claim(fetched), "compress.decode")
	decode.end(0)

	write := rec.here("idx.write")
	encode := rec.here("compress.encode")
	encoded := []byte{4, 5}
	encode.end(0)
	rec.leaveWaiting(encoded, encode)
	rec.adopt(encoded, write)
	fill.end(0)
	write.end(0)

	spans := rec.take()
	for _, tc := range []struct{ child, parent string }{{"compress.decode", "cache.getorfill"}, {"compress.encode", "idx.write"}} {
		for _, s := range spans {
			if s.Name == tc.child && (s.Parent < 0 || spans[s.Parent].Name != tc.parent) {
				t.Errorf("%s has parent %d, want the %s span", tc.child, s.Parent, tc.parent)
			}
		}
	}
}

func TestRequestListsDependOnlyOnSeed(t *testing.T) {
	for _, w := range []string{cohortWarm, exploreCold, renderPreview} {
		a, err := genStreams(w, benchSizes, 3, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genStreams(w, benchSizes, 3, 50)
		c, _ := genStreams(w, benchSizes, 4, 50)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different request lists", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same request list", w)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// -> [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles %v %v, want 3.5 31", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "req_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{lower, steady, []float64{90, 130, 100, 150, 110}, "unresolved"},
	} {
		if got, _, _ := verdict(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.spec.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope", "-workdir", t.TempDir()}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
