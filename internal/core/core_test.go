package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/metrics"
	"nsdfgo/internal/raster"
)

func TestBlackboard(t *testing.T) {
	bb := NewBlackboard()
	if _, ok := bb.Get("x"); ok {
		t.Error("empty blackboard hit")
	}
	bb.Put("x", 42)
	v, ok := bb.Get("x")
	if !ok || v.(int) != 42 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	bb.Put("a", "s")
	keys := bb.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "x" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestFetchTyped(t *testing.T) {
	bb := NewBlackboard()
	bb.Put("n", 7)
	n, err := Fetch[int](bb, "n")
	if err != nil || n != 7 {
		t.Errorf("Fetch = %d, %v", n, err)
	}
	if _, err := Fetch[string](bb, "n"); err == nil {
		t.Error("wrong type accepted")
	}
	if _, err := Fetch[int](bb, "missing"); err == nil {
		t.Error("missing key accepted")
	}
}

func TestWorkflowRunsInDependencyOrder(t *testing.T) {
	var order []string
	mk := func(name string, needs ...string) Step {
		return Step{Name: name, Needs: needs, Run: func(ctx context.Context, bb *Blackboard) error {
			order = append(order, name)
			return nil
		}}
	}
	w := NewWorkflow()
	// Added out of order on purpose.
	w.Add(mk("d", "b", "c"))
	w.Add(mk("b", "a"))
	w.Add(mk("c", "a"))
	w.Add(mk("a"))
	_, trail, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || order[0] != "a" || order[3] != "d" {
		t.Errorf("order = %v", order)
	}
	if trail.Failed() {
		t.Error("trail reports failure")
	}
	if len(trail.Records) != 4 {
		t.Errorf("%d records", len(trail.Records))
	}
}

func TestWorkflowFailureSkipsDownstream(t *testing.T) {
	boom := errors.New("boom")
	w := NewWorkflow()
	w.Add(Step{Name: "one", Run: func(context.Context, *Blackboard) error { return nil }})
	w.Add(Step{Name: "two", Needs: []string{"one"}, Run: func(context.Context, *Blackboard) error { return boom }})
	ran := false
	w.Add(Step{Name: "three", Needs: []string{"two"}, Run: func(context.Context, *Blackboard) error {
		ran = true
		return nil
	}})
	_, trail, err := w.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if ran {
		t.Error("downstream step ran after failure")
	}
	if !trail.Failed() {
		t.Error("trail does not report failure")
	}
	statuses := map[string]StepStatus{}
	for _, r := range trail.Records {
		statuses[r.Step] = r.Status
	}
	if statuses["one"] != StatusOK || statuses["two"] != StatusFailed || statuses["three"] != StatusSkipped {
		t.Errorf("statuses = %v", statuses)
	}
	if !strings.Contains(trail.String(), "boom") {
		t.Error("trail omits the error")
	}
}

func TestWorkflowValidation(t *testing.T) {
	run := func(context.Context, *Blackboard) error { return nil }
	cases := map[string]*Workflow{
		"duplicate": NewWorkflow().Add(Step{Name: "a", Run: run}).Add(Step{Name: "a", Run: run}),
		"unknown":   NewWorkflow().Add(Step{Name: "a", Needs: []string{"ghost"}, Run: run}),
		"cycle": NewWorkflow().
			Add(Step{Name: "a", Needs: []string{"b"}, Run: run}).
			Add(Step{Name: "b", Needs: []string{"a"}, Run: run}),
		"unnamed": NewWorkflow().Add(Step{Run: run}),
		"no-run":  NewWorkflow().Add(Step{Name: "a"}),
	}
	for name, w := range cases {
		if _, _, err := w.Run(context.Background()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWorkflowHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorkflow()
	w.Add(Step{Name: "one", Run: func(context.Context, *Blackboard) error {
		cancel()
		return nil
	}})
	w.Add(Step{Name: "two", Needs: []string{"one"}, Run: func(context.Context, *Blackboard) error {
		t.Error("step two ran after cancellation")
		return nil
	}})
	_, trail, err := w.Run(ctx)
	if err == nil {
		t.Error("cancelled run succeeded")
	}
	if trail.Records[1].Status != StatusSkipped {
		t.Errorf("step two status %s", trail.Records[1].Status)
	}
}

func TestWorkflowArtifactsRecorded(t *testing.T) {
	w := NewWorkflow()
	w.Add(Step{Name: "produce", Run: func(_ context.Context, bb *Blackboard) error {
		bb.Put("artifact", 1)
		return nil
	}})
	_, trail, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(trail.Records[0].Artifacts) != 1 || trail.Records[0].Artifacts[0] != "artifact" {
		t.Errorf("artifacts = %v", trail.Records[0].Artifacts)
	}
}

func TestTutorialWorkflowEndToEnd(t *testing.T) {
	f := NewFabric()
	w, err := f.TutorialWorkflow(TutorialConfig{Width: 128, Height: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := stepNames(w); len(got) != 4 || got[0] != "generate" || got[3] != "visualize" {
		t.Fatalf("steps = %v", got)
	}
	bb, trail, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("workflow failed: %v\n%s", err, trail)
	}

	// Step 1 artifacts: grids, DOI, published files, catalog records.
	grids, err := Fetch[map[string]*raster.Grid](bb, KeyGrids)
	if err != nil || len(grids) != 4 {
		t.Fatalf("grids: %d, %v", len(grids), err)
	}
	doi, err := Fetch[string](bb, KeyDOI)
	if err != nil || !strings.HasPrefix(doi, "doi:") {
		t.Fatalf("doi: %q, %v", doi, err)
	}
	info, err := f.Dataverse.Info(doi)
	if err != nil || info.Version != 1 || len(info.Files) != 4 {
		t.Fatalf("dataverse info: %+v, %v", info, err)
	}

	// Step 2: IDX dataset on private storage with all four fields.
	ds, err := Fetch[*idx.Dataset](bb, KeyDataset)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Meta.Fields) != 4 || ds.Meta.Dims[0] != 128 {
		t.Fatalf("dataset meta: %+v", ds.Meta)
	}
	if ds.Meta.Geo == nil {
		t.Error("dataset lost georeferencing through the TIFF round trip")
	}
	// Stored sizes are a deterministic function of the seed, the default
	// codec and the block layout; these were recorded before step 2 moved
	// onto convert.ToIDXWith, which must store every block byte-identically.
	idxBytes, err := Fetch[map[string]int64](bb, KeyIDXBytes)
	if err != nil {
		t.Fatal(err)
	}
	wantIDXBytes := map[string]int64{"elevation": 23616, "slope": 26242, "aspect": 23895, "hillshade": 22675}
	if !reflect.DeepEqual(idxBytes, wantIDXBytes) {
		t.Errorf("stored IDX bytes %v, want %v", idxBytes, wantIDXBytes)
	}

	// Step 3: validation identical for every field.
	reports, err := Fetch[map[string]metrics.Report](bb, KeyValidation)
	if err != nil || len(reports) != 4 {
		t.Fatalf("validation: %v, %v", reports, err)
	}
	for name, rep := range reports {
		if !rep.Identical {
			t.Errorf("%s: not identical: %s", name, rep)
		}
	}

	// Step 4: engine, dashboard, snip.
	snip, err := Fetch[[]byte](bb, KeySnip)
	if err != nil || len(snip) == 0 {
		t.Fatalf("snip: %d bytes, %v", len(snip), err)
	}

	// Catalog indexed 4 TIFFs + 4 IDX fields.
	if f.Catalog.Len() != 8 {
		t.Errorf("catalog has %d records, want 8", f.Catalog.Len())
	}

	// Provenance trail complete and ordered.
	if len(trail.Records) != 4 || trail.Failed() {
		t.Errorf("trail: %s", trail)
	}
}

func TestTutorialWorkflowCONUS(t *testing.T) {
	f := NewFabric()
	w, err := f.TutorialWorkflow(TutorialConfig{Region: "conus", Width: 96, Height: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, trail, err := w.Run(context.Background()); err != nil {
		t.Fatalf("%v\n%s", err, trail)
	}
}

func TestTutorialWorkflowSingleParam(t *testing.T) {
	f := NewFabric()
	w, err := f.TutorialWorkflow(TutorialConfig{Width: 64, Height: 32, Seed: 5, Params: []geotiled.Param{geotiled.Slope}})
	if err != nil {
		t.Fatal(err)
	}
	bb, trail, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("%v\n%s", err, trail)
	}
	reports, err := Fetch[map[string]metrics.Report](bb, KeyValidation)
	if err != nil || len(reports) != 1 {
		t.Fatalf("validation: %v, %v", reports, err)
	}
	if _, ok := reports["slope"]; !ok {
		t.Error("slope report missing")
	}
}

func TestTutorialConfigValidation(t *testing.T) {
	f := NewFabric()
	if _, err := f.TutorialWorkflow(TutorialConfig{Region: "mars"}); err == nil {
		t.Error("unknown region accepted")
	}
	if _, err := f.TutorialWorkflow(TutorialConfig{Width: 2, Height: 2}); err == nil {
		t.Error("tiny scene accepted")
	}
}

func TestTrailJSON(t *testing.T) {
	w := NewWorkflow()
	w.Add(Step{Name: "good", Run: func(_ context.Context, bb *Blackboard) error {
		bb.Put("artifact", 1)
		return nil
	}})
	w.Add(Step{Name: "bad", Needs: []string{"good"}, Run: func(context.Context, *Blackboard) error {
		return errors.New("kaput")
	}})
	_, trail, _ := w.Run(context.Background())
	data, err := json.Marshal(trail)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Failed  bool `json:"failed"`
		Records []struct {
			Step      string   `json:"step"`
			Status    string   `json:"status"`
			Error     string   `json:"error"`
			Artifacts []string `json:"artifacts"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Failed || len(out.Records) != 2 {
		t.Fatalf("json %s", data)
	}
	if out.Records[0].Status != "ok" || out.Records[0].Artifacts[0] != "artifact" {
		t.Errorf("record 0: %+v", out.Records[0])
	}
	if out.Records[1].Status != "failed" || out.Records[1].Error != "kaput" {
		t.Errorf("record 1: %+v", out.Records[1])
	}
}

func TestTrailStringRendersAllSteps(t *testing.T) {
	w := NewWorkflow()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("s%d", i)
		w.Add(Step{Name: name, Run: func(context.Context, *Blackboard) error { return nil }})
	}
	_, trail, _ := w.Run(context.Background())
	s := trail.String()
	for i := 0; i < 3; i++ {
		if !strings.Contains(s, fmt.Sprintf("s%d", i)) {
			t.Errorf("trail missing s%d:\n%s", i, s)
		}
	}
}

// stepNames returns w's step names in insertion order.
func stepNames(w *Workflow) []string {
	out := make([]string, len(w.steps))
	for i, s := range w.steps {
		out[i] = s.Name
	}
	return out
}
