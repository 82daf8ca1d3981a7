package hz

import (
	"strings"
	"testing"
)

// fuzzMasks is the pool of bitmasks the fuzzer selects from; the raw
// fuzz bytes pick one and shape the query, so every generated case is a
// valid mask with arbitrary level, box, and block split.
var fuzzMasks = []string{
	"V01", "V10", "V0101", "V1100", "V010101", "V000111",
	"V111000", "V0101010", "V1100110", "V01010101", "V0110100101",
}

// FuzzHZRuns drives the run-decomposition kernel with fuzzer-chosen
// masks, levels, boxes, and splits, and checks every emitted sample
// against the per-sample PointHZ oracle — the same contract
// TestHZRunsMatchPerSample pins on random inputs, here steered by the
// coverage-guided mutator.
func FuzzHZRuns(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(0), uint8(9), uint8(5), uint8(11), uint8(2))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(9), uint8(8), uint8(3), uint8(7), uint8(1), uint8(200), uint8(6))

	f.Fuzz(func(t *testing.T, maskSel, level, rx0, rx1, ry0, ry1, rsplit uint8) {
		b := MustParse(fuzzMasks[int(maskSel)%len(fuzzMasks)])
		m := b.Bits()
		L := int(level) % (m + 1)
		s := b.LevelStrides(L)
		sx, sy := s[0], s[1]
		dims := pow2Dims(b)

		x0 := int(rx0) % dims[0]
		x1 := x0 + 1 + int(rx1)%(dims[0]-x0)
		y0 := int(ry0) % dims[1]
		y1 := y0 + 1 + int(ry1)%(dims[1]-y0)
		// Align the half-open box to the level lattice the way ReadBox does.
		ax0 := (x0 + sx - 1) / sx * sx
		ay0 := (y0 + sy - 1) / sy * sy
		if ax0 >= x1 || ay0 >= y1 {
			t.Skip("box contains no lattice samples")
		}
		nx := (x1-1-ax0)/sx + 1
		ny := (y1-1-ay0)/sy + 1
		split := int(rsplit) % (m + 1) // 0 = no block splitting

		runs := b.HZRuns(nil, RunQuery{
			X0: ax0, Y0: ay0, NX: nx, NY: ny, Level: L, OutW: nx, SplitShift: split,
		})

		got := make(map[int]uint64, nx*ny)
		for _, run := range runs {
			if run.N <= 0 {
				t.Fatalf("run %+v has non-positive length", run)
			}
			if split > 0 && run.HZ>>split != (run.HZ+uint64(run.N)-1)>>split {
				t.Fatalf("run %+v crosses block boundary at shift %d", run, split)
			}
			for i := 0; i < int(run.N); i++ {
				out := run.Out + i*int(run.OutStep)
				if _, dup := got[out]; dup {
					t.Fatalf("output %d covered twice", out)
				}
				got[out] = run.HZ + uint64(i)
			}
		}
		if len(got) != nx*ny {
			t.Fatalf("mask %s level %d box (%d,%d)+%dx%d: runs cover %d samples, want %d",
				b, L, ax0, ay0, nx, ny, len(got), nx*ny)
		}
		p := make([]int, 2)
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				p[0], p[1] = ax0+ix*sx, ay0+iy*sy
				if want := b.PointHZ(p); got[iy*nx+ix] != want {
					t.Fatalf("mask %s level %d box (%d,%d)+%dx%d split %d: sample (%d,%d) hz=%d, want %d",
						b, L, ax0, ay0, nx, ny, split, ix, iy, got[iy*nx+ix], want)
				}
			}
		}
	})
}

// tilePlanMask picks the mask of one FuzzTilePlan case: one of the fixed
// pool (small masks, a non-alternating one, and what Guess gives a wide
// and a tall grid and volumes with non-power-of-two and one-thick axes),
// or, past the pool, a mask spelled by maskBits: its binary digits on
// even selectors, its ternary digits — a 3D mask — on odd ones.
func tilePlanMask(t *testing.T, maskSel uint8, maskBits uint32) Bitmask {
	pool := append([]string{"V0001011", "V0120120"}, fuzzMasks...)
	for _, dims := range [][]int{{4096, 512}, {3, 1000}, {64, 64, 64}, {20, 9, 5}, {37, 1, 21}, {1, 50, 3}} {
		b, err := Guess(dims)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, b.String())
	}
	if int(maskSel) < len(pool) {
		return MustParse(pool[maskSel])
	}
	radix := 2 + uint32(maskSel)%2
	var sb strings.Builder
	for k := 0; k < 2+int(maskSel)%20; k++ {
		sb.WriteByte(byte('0' + maskBits%radix))
		maskBits /= radix
	}
	return MustParse(sb.String())
}

// FuzzTilePlan checks the block-first planner on fuzzer-chosen 2D and 3D
// masks, block sizes, boxes and levels: PlanTiles must address every
// lattice sample once, at the address PointHZ gives it, and on 2D masks
// exactly the (HZ address, output index) pairs HZRuns does
// (checkTilePlan). Boxes are capped at 96 lattice points a side, 24 on
// 3D masks, so a case stays cheap on the 21-bit masks.
func FuzzTilePlan(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint8(7), uint16(0), uint16(15), uint16(0), uint16(7), uint16(0), uint16(0), uint8(3))
	f.Add(uint8(13), uint32(0), uint8(21), uint16(1000), uint16(90), uint16(17), uint16(60), uint16(0), uint16(0), uint8(16))
	f.Add(uint8(14), uint32(0), uint8(12), uint16(1), uint16(2), uint16(300), uint16(95), uint16(0), uint16(0), uint8(5))
	f.Add(uint8(200), uint32(0x2d3a5), uint8(9), uint16(3), uint16(40), uint16(2), uint16(33), uint16(0), uint16(0), uint8(0))
	f.Add(uint8(16), uint32(0), uint8(11), uint16(5), uint16(13), uint16(2), uint16(6), uint16(1), uint16(3), uint8(4))
	f.Add(uint8(17), uint32(0), uint8(9), uint16(3), uint16(20), uint16(0), uint16(0), uint16(7), uint16(9), uint8(2))
	f.Add(uint8(201), uint32(0x1b7c4d), uint8(10), uint16(1), uint16(9), uint16(2), uint16(7), uint16(1), uint16(5), uint8(3))

	f.Fuzz(func(t *testing.T, maskSel uint8, maskBits uint32, level uint8, rx0, rnx, ry0, rny, rz0, rnz uint16, rsplit uint8) {
		b := tilePlanMask(t, maskSel, maskBits)
		m := b.Bits()
		L := int(level) % (m + 1)
		side := 96
		if b.Dims() > 2 {
			side = 24
		}
		raw := [Axes][2]uint16{{rx0, rnx}, {ry0, rny}, {rz0, rnz}}
		lo, hi := [Axes]int{}, [Axes]int{1, 1, 1}
		s := b.LevelStrides(L)
		for a, d := range pow2Dims(b) {
			lo[a] = int(raw[a][0]) % d
			hi[a] = min(d, lo[a]+(1+int(raw[a][1])%side)*s[a])
		}
		q, ok := latticeQuery(b, lo, hi, L, int(rsplit)%(m+1))
		if !ok {
			t.Skip("box contains no lattice samples")
		}
		checkTilePlan(t, b, q)
	})
}
