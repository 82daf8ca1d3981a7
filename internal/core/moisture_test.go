package core

import (
	"context"
	"strings"
	"testing"

	"nsdfgo/internal/catalog"
	"nsdfgo/internal/idx"
	"nsdfgo/internal/query"
	"nsdfgo/internal/raster"
	"nsdfgo/internal/somospie"
	"nsdfgo/internal/storage"
)

func TestMoistureWorkflowEndToEnd(t *testing.T) {
	f := NewFabric()
	w, err := f.MoistureWorkflow(MoistureConfig{Width: 96, Height: 64, Seed: 7, Observations: 600})
	if err != nil {
		t.Fatal(err)
	}
	steps := stepNames(w)
	want := []string{"terrain", "observe", "train", "downscale", "publish"}
	if len(steps) != len(want) {
		t.Fatalf("steps %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("step %d = %s, want %s", i, steps[i], want[i])
		}
	}
	bb, trail, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("workflow failed: %v\n%s", err, trail)
	}

	// Models evaluated, winner chosen, all with genuine skill.
	reports, err := Fetch[[]somospie.EvalReport](bb, KeyEvaluations)
	if err != nil || len(reports) != 3 {
		t.Fatalf("evaluations: %v, %v", reports, err)
	}
	for _, rep := range reports {
		if rep.R2 <= 0 {
			t.Errorf("%s: R2 = %v", rep.Model, rep.R2)
		}
	}
	best, err := Fetch[string](bb, KeyBestModel)
	if err != nil || best == "" {
		t.Fatalf("best model: %q, %v", best, err)
	}

	// Prediction grid exists and correlates with truth.
	pred, err := Fetch[*raster.Grid](bb, KeyPrediction)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := Fetch[*raster.Grid](bb, KeyTruth)
	if err != nil {
		t.Fatal(err)
	}
	if pred.W != truth.W || pred.H != truth.H {
		t.Fatalf("prediction %dx%d vs truth %dx%d", pred.W, pred.H, truth.W, truth.H)
	}

	// NetCDF observation product published to Dataverse.
	doi, err := Fetch[string](bb, KeyDOI)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Dataverse.GetFile(context.Background(), doi, 0, "soil_moisture.nc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data[:3]), "CDF") {
		t.Error("published product is not NetCDF")
	}

	// IDX product with both fields readable via the workflow's engine.
	engine, err := Fetch[*query.Engine](bb, KeyEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"soil_moisture_pred", "soil_moisture_truth"} {
		res, err := engine.Read(context.Background(), query.Request{Field: field, Level: query.LevelFull})
		if err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		lo, hi, ok := res.Grid.MinMax()
		if !ok || lo < 0.0 || hi > 0.6 {
			t.Errorf("%s: range [%v,%v]", field, lo, hi)
		}
	}

	// Catalog knows both the NetCDF source and the IDX product.
	if got := f.Catalog.Search(catalog.Query{Terms: "moisture"}); len(got) != 2 {
		t.Errorf("catalog moisture records: %d", len(got))
	}
}

func TestMoistureWorkflowValidation(t *testing.T) {
	f := NewFabric()
	if _, err := f.MoistureWorkflow(MoistureConfig{Width: 4, Height: 4}); err == nil {
		t.Error("tiny region accepted")
	}
	if _, err := f.MoistureWorkflow(MoistureConfig{Observations: 10}); err == nil {
		t.Error("too few observations accepted")
	}
	if _, err := f.MoistureWorkflow(MoistureConfig{Width: 32, Height: 32, Observations: 600}); err == nil {
		t.Error("oversampled region accepted")
	}
	if _, err := f.MoistureWorkflow(MoistureConfig{TestFraction: 1.5}); err == nil {
		t.Error("bad test fraction accepted")
	}
}

func TestMoistureDatasetReopens(t *testing.T) {
	f := NewFabric()
	w, err := f.MoistureWorkflow(MoistureConfig{Width: 64, Height: 48, Seed: 3, Observations: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, trail, err := w.Run(context.Background()); err != nil {
		t.Fatalf("%v\n%s", err, trail)
	}
	// The product is on the fabric's private store, openable independently.
	ds, err := idx.Open(context.Background(), storage.NewIDXBackend(f.Private, "datasets/soil_moisture"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Meta.Fields) != 2 {
		t.Errorf("reopened dataset has %d fields", len(ds.Meta.Fields))
	}
}
