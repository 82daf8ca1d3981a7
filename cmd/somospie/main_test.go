package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRunToySize runs the SOMOSPIE workflow at toy size and checks that
// the model competition names a winner; too few observations fail (exit
// status 1 in main).
func TestRunToySize(t *testing.T) {
	for _, tc := range []struct {
		observations string
		wantErr      bool
	}{
		{"120", false},
		{"10", true},
	} {
		t.Run(tc.observations, func(t *testing.T) {
			fs := flag.NewFlagSet("somospie", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			var out strings.Builder
			err := run(fs, []string{"-width", "32", "-height", "24", "-observations", tc.observations, "-seed", "5"}, &out)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run = %v, want error %v", err, tc.wantErr)
			}
			if !tc.wantErr && !strings.Contains(out.String(), "winner: ") {
				t.Errorf("stdout names no winner:\n%s", out.String())
			}
		})
	}
}
