package hz

import (
	"math/rand"
	"testing"
)

// randomMask2D builds a random 2D bitmask of 2..13 bits using both axes.
func randomMask2D(r *rand.Rand) Bitmask {
	for {
		n := 2 + r.Intn(12)
		body := make([]byte, n)
		has := [2]bool{}
		for i := range body {
			a := r.Intn(2)
			has[a] = true
			body[i] = byte('0' + a)
		}
		if has[0] && has[1] {
			return MustParse("V" + string(body))
		}
	}
}

// expandRuns replays a run plan sample by sample, checking that every
// output index is covered exactly once and (when split) that no run
// crosses a block boundary. It returns output index -> HZ address.
func expandRuns(t *testing.T, runs []Run, splitShift int) map[int]uint64 {
	t.Helper()
	got := make(map[int]uint64)
	for _, run := range runs {
		if run.N <= 0 {
			t.Fatalf("run %+v has non-positive length", run)
		}
		if splitShift > 0 {
			first := run.HZ >> splitShift
			last := (run.HZ + uint64(run.N) - 1) >> splitShift
			if first != last {
				t.Fatalf("run %+v crosses block boundary at shift %d", run, splitShift)
			}
		}
		for i := 0; i < int(run.N); i++ {
			out := run.Out + i*int(run.OutStep)
			if prev, dup := got[out]; dup {
				t.Fatalf("output %d covered twice (hz %d and %d)", out, prev, run.HZ+uint64(i))
			}
			got[out] = run.HZ + uint64(i)
		}
	}
	return got
}

// TestHZRunsMatchPerSample is the core kernel property test: on random
// bitmasks (square and not), levels (including 0 and MaxLevel), boxes,
// and block splits, the run decomposition must assign every lattice
// sample the same HZ address as the per-sample PointHZ reference.
func TestHZRunsMatchPerSample(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		b := randomMask2D(r)
		m := b.Bits()
		L := r.Intn(m + 1)
		if trial%7 == 0 {
			L = 0
		} else if trial%11 == 0 {
			L = m
		}
		s := b.LevelStrides(L)
		sx, sy := s[0], s[1]
		dims := b.Pow2Dims()
		// Random half-open box inside the padded grid, then aligned to
		// the level lattice the way ReadBox aligns it.
		x0 := r.Intn(dims[0])
		x1 := x0 + 1 + r.Intn(dims[0]-x0)
		y0 := r.Intn(dims[1])
		y1 := y0 + 1 + r.Intn(dims[1]-y0)
		ax0 := (x0 + sx - 1) / sx * sx
		ay0 := (y0 + sy - 1) / sy * sy
		if ax0 >= x1 || ay0 >= y1 {
			continue // box contains no lattice samples
		}
		nx := (x1-1-ax0)/sx + 1
		ny := (y1-1-ay0)/sy + 1
		split := 0
		if r.Intn(2) == 0 {
			split = 1 + r.Intn(m)
		}

		runs := b.HZRuns(nil, RunQuery{
			X0: ax0, Y0: ay0, NX: nx, NY: ny, Level: L, OutW: nx, SplitShift: split,
		})
		got := expandRuns(t, runs, split)
		if len(got) != nx*ny {
			t.Fatalf("mask %s level %d box (%d,%d)+%dx%d: runs cover %d samples, want %d",
				b, L, ax0, ay0, nx, ny, len(got), nx*ny)
		}
		p := make([]int, 2)
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				p[0], p[1] = ax0+ix*sx, ay0+iy*sy
				want := b.PointHZ(p)
				if g := got[iy*nx+ix]; g != want {
					t.Fatalf("mask %s level %d box (%d,%d)+%dx%d split %d: sample (%d,%d) hz=%d, want %d",
						b, L, ax0, ay0, nx, ny, split, ix, iy, g, want)
				}
			}
		}
	}
}

// TestHZRunsNonSquareFullGrid pins the decomposition on strongly
// non-square masks: all x bits before all y bits and vice versa, full
// box at full resolution.
func TestHZRunsNonSquareFullGrid(t *testing.T) {
	for _, ms := range []string{"V000111", "V111000", "V0101", "V10", "V01", "V1100110"} {
		b := MustParse(ms)
		dims := b.Pow2Dims()
		w, h := dims[0], dims[1]
		runs := b.HZRuns(nil, RunQuery{NX: w, NY: h, Level: b.Bits(), OutW: w})
		got := expandRuns(t, runs, 0)
		if len(got) != w*h {
			t.Fatalf("mask %s: covered %d of %d samples", ms, len(got), w*h)
		}
		p := make([]int, 2)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p[0], p[1] = x, y
				if want := b.PointHZ(p); got[y*w+x] != want {
					t.Fatalf("mask %s: (%d,%d) hz=%d, want %d", ms, x, y, got[y*w+x], want)
				}
			}
		}
	}
}

// TestHZRunsLevelZero checks the two level-0 cases: a box containing the
// origin yields the single level-0 sample; a box that misses it yields
// nothing at level 0 (ReadBox rejects such queries before planning).
func TestHZRunsLevelZero(t *testing.T) {
	b := MustParse("V0101")
	runs := b.HZRuns(nil, RunQuery{X0: 0, Y0: 0, NX: 1, NY: 1, Level: 0, OutW: 1})
	if len(runs) != 1 || runs[0].HZ != 0 || runs[0].N != 1 || runs[0].Out != 0 {
		t.Fatalf("level-0 origin query: got %+v", runs)
	}
}

// TestHZRunsAreMaximal verifies the "maximal" half of the contract on an
// alternating mask: a full-resolution full-grid query must produce runs
// averaging at least 2 samples (the finest level alone is half the
// samples in runs of >= 2).
func TestHZRunsAreMaximal(t *testing.T) {
	b := MustParse("V01010101") // 16x16
	runs := b.HZRuns(nil, RunQuery{NX: 16, NY: 16, Level: 8, OutW: 16})
	if len(runs) >= 256 {
		t.Fatalf("256-sample query produced %d runs; kernel is emitting per-sample runs", len(runs))
	}
	// The finest exact level (128 samples, x fastest in the payload) must
	// decompose into runs of exactly 2 here, never 1.
	var finest int
	for _, r := range runs {
		if Level(r.HZ) == 8 {
			finest++
			if r.N != 2 {
				t.Fatalf("finest-level run %+v has length %d, want 2", r, r.N)
			}
		}
	}
	if finest != 64 {
		t.Fatalf("finest level split into %d runs, want 64", finest)
	}
}
