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
		"stored: 262144 voxels in 64 blocks, 730384 bytes, 18 resolution levels\n",
		"full-resolution crop 16x16x4: peak moisture 0.285 (7 of 64 blocks fetched)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
