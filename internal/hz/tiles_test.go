package hz

import (
	"math/rand"
	"testing"
)

// checkTilePlan asserts that PlanTiles(q) addresses exactly the (HZ address,
// output index) pairs HZRuns(q) does — each output index once — and that
// the tile list keeps its ordering contract: sorted by block then level,
// one tile per block above block 0, every tile inside its block.
func checkTilePlan(t *testing.T, b Bitmask, q RunQuery) {
	t.Helper()
	want := make(map[int]uint64, q.NX*q.NY)
	for _, run := range b.HZRuns(nil, q) {
		for i := 0; i < int(run.N); i++ {
			want[run.Out+i*int(run.OutStep)] = run.HZ + uint64(i)
		}
	}
	blockBits := q.SplitShift
	if blockBits == 0 {
		blockBits = b.Bits()
	}
	plan := b.PlanTiles(q)
	got := make(map[int]uint64, len(want))
	for n, tl := range plan.Tiles {
		if n > 0 {
			prev := plan.Tiles[n-1]
			if tl.Block < prev.Block || (tl.Block == prev.Block && (tl.Block != 0 || tl.Level <= prev.Level)) {
				t.Fatalf("mask %s query %+v: tile %+v follows %+v", b, q, tl, prev)
			}
		}
		if tl.I0 >= tl.I1 || tl.J0 >= tl.J1 {
			t.Fatalf("mask %s query %+v: empty tile %+v", b, q, tl)
		}
		lv := plan.Levels[tl.Level]
		for j := tl.J0; j < tl.J1; j++ {
			for i := tl.I0; i < tl.I1; i++ {
				off := lv.XOff[i] | lv.YOff[j]
				if uint64(off)>>blockBits != 0 {
					t.Fatalf("mask %s query %+v: tile %+v point (%d,%d) offset %d outside its block", b, q, tl, i, j, off)
				}
				out := lv.Out0 + i*lv.OutStepX + j*lv.OutStepY
				if _, dup := got[out]; dup {
					t.Fatalf("mask %s query %+v: output %d covered twice", b, q, out)
				}
				got[out] = uint64(tl.Block)<<blockBits | uint64(off)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("mask %s query %+v: tiles cover %d samples, runs cover %d", b, q, len(got), len(want))
	}
	for out, h := range want {
		if got[out] != h {
			t.Fatalf("mask %s query %+v: output %d has hz %d, runs say %d", b, q, out, got[out], h)
		}
	}
}

// latticeQuery aligns a half-open box to the level lattice the way
// ReadBox does; ok is false when the box holds no lattice sample.
func latticeQuery(b Bitmask, x0, y0, x1, y1, level, split int) (q RunQuery, ok bool) {
	s := b.LevelStrides(level)
	ax0 := (x0 + s[0] - 1) / s[0] * s[0]
	ay0 := (y0 + s[1] - 1) / s[1] * s[1]
	if ax0 >= x1 || ay0 >= y1 {
		return q, false
	}
	nx := (x1-1-ax0)/s[0] + 1
	ny := (y1-1-ay0)/s[1] + 1
	return RunQuery{X0: ax0, Y0: ay0, NX: nx, NY: ny, Level: level, OutW: nx, SplitShift: split}, true
}

// TestTilePlanMatchesRuns is the planner's property test on random
// masks, levels, boxes and block sizes, plus the full grid of a few
// small masks at every level and block size.
func TestTilePlanMatchesRuns(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		b := randomMask2D(r)
		m := b.Bits()
		dims := b.Pow2Dims()
		x0 := r.Intn(dims[0])
		x1 := x0 + 1 + r.Intn(dims[0]-x0)
		y0 := r.Intn(dims[1])
		y1 := y0 + 1 + r.Intn(dims[1]-y0)
		if q, ok := latticeQuery(b, x0, y0, x1, y1, r.Intn(m+1), r.Intn(m+1)); ok {
			checkTilePlan(t, b, q)
		}
	}
	for _, ms := range []string{"V01", "V0001011", "V111000", "V01010101", "V1100110"} {
		b := MustParse(ms)
		dims := b.Pow2Dims()
		for level := 0; level <= b.Bits(); level++ {
			for split := 0; split <= b.Bits(); split++ {
				q, _ := latticeQuery(b, 0, 0, dims[0], dims[1], level, split)
				checkTilePlan(t, b, q)
			}
		}
	}
}

// TestTilePlanIsBlockSized pins the point of the planner: a full
// 1024×1024 read plans in table entries and tiles proportional to
// nx + ny and the touched blocks, not to the million samples.
func TestTilePlanIsBlockSized(t *testing.T) {
	b, err := Guess([]int{1024, 1024})
	if err != nil {
		t.Fatal(err)
	}
	plan := b.PlanTiles(RunQuery{NX: 1024, NY: 1024, Level: 20, OutW: 1024, SplitShift: 16})
	entries := 0
	for _, lv := range plan.Levels {
		entries += len(lv.XOff) + len(lv.YOff)
	}
	// 17 tiles of block 0 (levels 0..16) and one for each of blocks 1..15.
	if len(plan.Tiles) != 17+15 {
		t.Errorf("planned %d tiles, want 32", len(plan.Tiles))
	}
	if entries > 4*(1024+1024) {
		t.Errorf("planned %d table entries for a 1024x1024 read", entries)
	}
}
