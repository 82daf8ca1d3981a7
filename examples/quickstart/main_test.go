package main

import (
	"strings"
	"testing"
)

// TestRun runs the example at its default size and checks two lines of
// its output that the seeded data fixes: the stored footprint and one
// read.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stored as IDX: 16 blocks, 188473 bytes total\n",
		"central 128x128 region: min=710.7 m, max=1133.4 m, mean=972.5 m\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
