package main

import (
	"flag"
	"io"
	"regexp"
	"strings"
	"testing"
)

// TestRunToySize lists the experiments, refuses an unknown id, and runs
// fig3, whose modelled network times come from the seeded conditioner
// and so are the same on every machine.
func TestRunToySize(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr bool
		want    []string
	}{
		{"list", []string{"-list"}, false, []string{"fig1\n", "fig3\n", "claimcloud\n"}},
		{"unknown id", []string{"-run", "fig99"}, true, nil},
		{"fig3", []string{"-run", "fig3"}, false, []string{
			`cross-country .* network +6\.248ms`,
			`local .* network +0\.014ms`,
			`regional .* network +1\.681ms`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("nsdf-experiments", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var out strings.Builder
			err := run(fs, tc.args, &out)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run = %v, want error %v", err, tc.wantErr)
			}
			for _, want := range tc.want {
				if !regexp.MustCompile(want).MatchString(out.String()) {
					t.Errorf("stdout lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}
