package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestDriverExitCodes runs the driver in-process against the exit-code
// contract: 0 on the lint-clean lint package itself, 1 (with -json
// findings on stdout) on a violating fixture package, and 2 on an
// unknown flag or a pattern that does not load.
func TestDriverExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"nsdfgo/internal/lint"}, 0},
		{"findings", []string{"-json", "nsdfgo/internal/lint/testdata/src/droppederr"}, 1},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"unloadable pattern", []string{"nsdfgo/internal/no-such-package"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, stdout.String(), stderr.String())
			}
			if tc.want != 1 {
				return
			}
			var findings []struct {
				Analyzer string `json:"analyzer"`
				File     string `json:"file"`
				Line     int    `json:"line"`
				Message  string `json:"message"`
			}
			if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
				t.Fatalf("parse -json output: %v\n%s", err, stdout.String())
			}
			if len(findings) == 0 {
				t.Fatal("driver reported exit 1 but no JSON findings")
			}
			for _, f := range findings {
				if f.Analyzer != "droppederr" {
					t.Errorf("unexpected analyzer %q in %+v", f.Analyzer, f)
				}
			}
		})
	}
}
