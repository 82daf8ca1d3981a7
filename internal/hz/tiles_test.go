package hz

import (
	"math/rand"
	"testing"
)

// checkTilePlan asserts that PlanTiles(q) addresses every lattice sample
// of q exactly once and at the HZ address PointHZ gives the sample's
// point — the N-D oracle — and, on masks HZRuns handles, exactly the
// (HZ address, output index) pairs HZRuns(q) does. It also checks the
// tile list's ordering contract: sorted by block then level, one tile
// per block above block 0, every tile inside its block.
func checkTilePlan(t *testing.T, b Bitmask, q TileQuery) {
	t.Helper()
	blockBits := q.BlockBits
	if blockBits == 0 {
		blockBits = b.Bits()
	}
	plan := b.PlanTiles(q)
	got := make(map[int]uint64, q.N[0]*q.N[1]*q.N[2])
	for n, tl := range plan.Tiles {
		if n > 0 {
			prev := plan.Tiles[n-1]
			if tl.Block < prev.Block || (tl.Block == prev.Block && (tl.Block != 0 || tl.Level <= prev.Level)) {
				t.Fatalf("mask %s query %+v: tile %+v follows %+v", b, q, tl, prev)
			}
		}
		if tl.I0 >= tl.I1 || tl.J0 >= tl.J1 || tl.K0 >= tl.K1 {
			t.Fatalf("mask %s query %+v: empty tile %+v", b, q, tl)
		}
		lv := plan.Levels[tl.Level]
		for k := tl.K0; k < tl.K1; k++ {
			for j := tl.J0; j < tl.J1; j++ {
				for i := tl.I0; i < tl.I1; i++ {
					off := lv.Off[0][i] | lv.Off[1][j] | lv.Off[2][k]
					if uint64(off)>>blockBits != 0 {
						t.Fatalf("mask %s query %+v: tile %+v point (%d,%d,%d) offset %d outside its block", b, q, tl, i, j, k, off)
					}
					out := lv.Out0 + i*lv.OutStep[0] + j*lv.OutStep[1] + k*lv.OutStep[2]
					if _, dup := got[out]; dup {
						t.Fatalf("mask %s query %+v: output %d covered twice", b, q, out)
					}
					got[out] = uint64(tl.Block)<<blockBits | uint64(off)
				}
			}
		}
	}
	if len(got) != q.N[0]*q.N[1]*q.N[2] {
		t.Fatalf("mask %s query %+v: tiles cover %d samples, want %d", b, q, len(got), q.N[0]*q.N[1]*q.N[2])
	}
	stride := [Axes]int{1, 1, 1}
	copy(stride[:], b.LevelStrides(q.Level))
	var p [Axes]int
	for k := 0; k < q.N[2]; k++ {
		for j := 0; j < q.N[1]; j++ {
			for i := 0; i < q.N[0]; i++ {
				p = [Axes]int{q.P0[0] + i*stride[0], q.P0[1] + j*stride[1], q.P0[2] + k*stride[2]}
				out := (k*q.N[1]+j)*q.N[0] + i
				if want := b.PointHZ(p[:]); got[out] != want {
					t.Fatalf("mask %s query %+v: point %v (output %d) has hz %d, PointHZ says %d", b, q, p, out, got[out], want)
				}
			}
		}
	}
	if b.Dims() > 2 {
		return
	}
	runs := b.HZRuns(nil, RunQuery{X0: q.P0[0], Y0: q.P0[1], NX: q.N[0], NY: q.N[1],
		Level: q.Level, OutW: q.N[0], SplitShift: q.BlockBits})
	covered := 0
	for _, run := range runs {
		for i := 0; i < int(run.N); i++ {
			if out := run.Out + i*int(run.OutStep); got[out] != run.HZ+uint64(i) {
				t.Fatalf("mask %s query %+v: output %d has hz %d, runs say %d", b, q, out, got[out], run.HZ+uint64(i))
			}
			covered++
		}
	}
	if covered != len(got) {
		t.Fatalf("mask %s query %+v: tiles cover %d samples, runs cover %d", b, q, len(got), covered)
	}
}

// latticeQuery aligns the half-open box [lo, hi) to the level lattice
// the way idx's reader does; ok is false when the box holds no lattice
// sample. Axes the mask does not have keep one point.
func latticeQuery(b Bitmask, lo, hi [Axes]int, level, blockBits int) (q TileQuery, ok bool) {
	q = TileQuery{N: [Axes]int{1, 1, 1}, Level: level, BlockBits: blockBits}
	for a, s := range b.LevelStrides(level) {
		q.P0[a] = (lo[a] + s - 1) / s * s
		if q.P0[a] >= hi[a] {
			return q, false
		}
		q.N[a] = (hi[a]-1-q.P0[a])/s + 1
	}
	return q, true
}

// randomMask builds a random bitmask of 2..13 bits over ndim axes, the
// last of which it always names.
func randomMask(r *rand.Rand, ndim int) Bitmask {
	body := make([]byte, 2+r.Intn(12))
	for i := range body {
		body[i] = byte('0' + r.Intn(ndim))
	}
	body[r.Intn(len(body))] = byte('0' + ndim - 1)
	return MustParse("V" + string(body))
}

// TestTilePlanMatchesRuns is the planner's property test on random 2D
// and 3D masks, levels, boxes and block sizes, plus the full grid of a
// few small masks — among them what Guess gives volumes with
// non-power-of-two and one-thick axes — at every level and block size.
func TestTilePlanMatchesRuns(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 600; trial++ {
		b := randomMask(r, 2+trial%2)
		m := b.Bits()
		lo, hi := [Axes]int{}, [Axes]int{1, 1, 1}
		for a, d := range pow2Dims(b) {
			lo[a] = r.Intn(d)
			hi[a] = lo[a] + 1 + r.Intn(d-lo[a])
		}
		if q, ok := latticeQuery(b, lo, hi, r.Intn(m+1), r.Intn(m+1)); ok {
			checkTilePlan(t, b, q)
		}
	}
	masks := []string{"V01", "V0001011", "V111000", "V01010101", "V1100110", "V0120120", "V2201"}
	for _, dims := range [][]int{{20, 9, 5}, {7, 1, 12}, {1, 6, 3}, {5, 3, 1}} {
		b, err := Guess(dims)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, b.String())
	}
	for _, ms := range masks {
		b := MustParse(ms)
		hi := [Axes]int{1, 1, 1}
		copy(hi[:], pow2Dims(b))
		for level := 0; level <= b.Bits(); level++ {
			for split := 0; split <= b.Bits(); split++ {
				q, _ := latticeQuery(b, [Axes]int{}, hi, level, split)
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
	plan := b.PlanTiles(TileQuery{N: [Axes]int{1024, 1024, 1}, Level: 20, BlockBits: 16})
	entries := 0
	for _, lv := range plan.Levels {
		entries += len(lv.Off[0]) + len(lv.Off[1]) + len(lv.Off[2])
	}
	// 17 tiles of block 0 (levels 0..16) and one for each of blocks 1..15.
	if len(plan.Tiles) != 17+15 {
		t.Errorf("planned %d tiles, want 32", len(plan.Tiles))
	}
	if entries > 4*(1024+1024) {
		t.Errorf("planned %d table entries for a 1024x1024 read", entries)
	}
}
