package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nsdfgo/internal/dem"
	"nsdfgo/internal/geotiled"
	"nsdfgo/internal/tiff"
)

// TestRunToySize converts two toy GeoTIFFs, as the geotiled command
// writes them, with -validate, and checks that a run without inputs
// fails (exit status 1 in main).
func TestRunToySize(t *testing.T) {
	dir := t.TempDir()
	scene := dem.Tennessee(48, 24, 7)
	var inputs []string
	for _, p := range []geotiled.Param{geotiled.Elevation, geotiled.Slope} {
		g, err := geotiled.ComputeTiled(scene, p, geotiled.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tiff.Encode(&buf, tiff.FromGrid(g), tiff.EncodeOptions{Compression: tiff.CompressionDeflate}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "tennessee_"+p.String()+".tif")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, path)
	}
	outDir := filepath.Join(dir, "tn.idxdata")
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr bool
	}{
		{"tiffs", append([]string{"-out", outDir, "-validate"}, inputs...), false},
		{"no inputs", []string{"-out", outDir}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("nsdf-convert", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var out strings.Builder
			err := run(fs, tc.args, &out)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run = %v, want error %v", err, tc.wantErr)
			}
			if tc.wantErr {
				return
			}
			if !strings.Contains(out.String(), "2 fields, 48x24") {
				t.Errorf("stdout lacks the dataset summary:\n%s", out.String())
			}
			if _, err := os.Stat(filepath.Join(outDir, "fields", "tennessee_slope")); err != nil {
				t.Errorf("no slope blocks on disk: %v", err)
			}
		})
	}
}
