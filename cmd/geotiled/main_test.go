package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunToySize runs the command at toy size: a known region writes one
// GeoTIFF per parameter, an unknown one fails (exit status 1 in main).
func TestRunToySize(t *testing.T) {
	for _, tc := range []struct {
		region  string
		wantErr bool
	}{
		{"tennessee", false},
		{"conus", false},
		{"mars", true},
	} {
		t.Run(tc.region, func(t *testing.T) {
			dir := t.TempDir()
			fs := flag.NewFlagSet("geotiled", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var out strings.Builder
			err := run(fs, []string{"-region", tc.region, "-width", "48", "-height", "24", "-tile", "16",
				"-params", "elevation,slope", "-out", dir}, &out)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run = %v, want error %v", err, tc.wantErr)
			}
			if tc.wantErr {
				return
			}
			for _, p := range []string{"elevation", "slope"} {
				path := filepath.Join(dir, tc.region+"_"+p+".tif")
				if st, err := os.Stat(path); err != nil || st.Size() == 0 {
					t.Errorf("%s: %v", path, err)
				}
			}
			if got := strings.Count(out.String(), "wrote "); got != 2 {
				t.Errorf("stdout reports %d files, want 2:\n%s", got, out.String())
			}
		})
	}
}
