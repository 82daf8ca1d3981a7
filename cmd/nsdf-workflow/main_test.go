package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRunToySize runs the four-step workflow at toy size and checks that
// it reports the step-2 reduction and the step-4 zoom; an unknown region
// fails (exit status 1 in main).
func TestRunToySize(t *testing.T) {
	for _, tc := range []struct {
		region string
		want   []string
	}{
		{"tennessee", []string{"overall reduction:", "progressive zoom into the eastern mountains", "identical=true"}},
		{"mars", nil},
	} {
		t.Run(tc.region, func(t *testing.T) {
			fs := flag.NewFlagSet("nsdf-workflow", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var out strings.Builder
			err := run(fs, []string{"-region", tc.region, "-width", "64", "-height", "32", "-seed", "3"}, &out)
			if (err != nil) != (tc.want == nil) {
				t.Fatalf("run = %v, want error %v", err, tc.want == nil)
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("stdout lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}
