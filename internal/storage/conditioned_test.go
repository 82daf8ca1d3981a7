package storage

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestConditionedDelayStreamGolden pins the seeded delay stream: at seed 1
// the first 64 draws of each profile equal constants recorded before
// FailProb existed. Each draw is preceded by the op path's failure trip, so
// a FailProb of 0 provably adds no random draw. sampleDelay is called
// directly, so the test sleeps for nothing.
func TestConditionedDelayStreamGolden(t *testing.T) {
	local := make([]int64, 64)
	for i := range local {
		local[i] = 261035
	}
	for _, tc := range []struct {
		name    string
		profile NetworkProfile
		want    []int64
	}{
		{"local", ProfileLocal, local},
		{"regional", ProfileRegional, []int64{
			2247637, 2650119, 2684519, 2314492, 2291830, 2301610, 2340206, 2660155,
			2540527, 2544295, 2648657, 2302856, 2318871, 2495891, 2681485, 2258284,
			2280259, 2691939, 2687605, 2432933, 2706022, 2537599, 2699750, 2267664,
			2470860, 2416955, 2477606, 2702943, 2608032, 2605684, 2731688, 2338171,
			2652839, 2349076, 2312785, 2381088, 2476242, 2439952, 2478605, 2527175,
			2567268, 2406210, 2278487, 2320089, 2623700, 2700926, 2645513, 2387958,
			2458947, 2450891, 2412408, 2442164, 2395836, 2699877, 2594288, 2429960,
			2615671, 2428410, 2438834, 2277588, 2604795, 2585066, 2502732, 2596259,
		}},
		{"cross-country", ProfileCrossCountry, []int64{
			9754250, 9687238, 9348921, 9598796, 9261503, 8365313, 9773853, 8454953,
			8342783, 9929627, 8687265, 9489843, 9256753, 9875427, 9719864, 8498702,
			8636426, 9499045, 9347945, 9776916, 9145190, 9291062, 9099009, 9777877,
			9655405, 9388026, 8818050, 9910963, 8552761, 9846614, 8691174, 9892616,
			9823467, 9168458, 9728831, 8357482, 9616405, 9270728, 8117289, 8127369,
			8271109, 8331052, 9633462, 8536273, 8995281, 8756856, 8152575, 9305515,
			9197413, 8496504, 9412291, 9773082, 8142166, 8864887, 8629602, 9376293,
			8649005, 8096131, 9089112, 9337765, 8067538, 9588471, 9549181, 9453915,
		}},
		{"tail", NetworkProfile{RTT: time.Millisecond, Jitter: 200 * time.Microsecond, TailProb: 0.1, TailSpike: 20 * time.Millisecond}, []int64{
			1044144, 1123840, 1146753, 1066384, 1130838, 1043632, 1042790, 1028313,
			1130511, 1043577, 1048119, 1079083, 1019474, 1123744, 1086110, 21056688,
			1046467, 21133208, 21178969, 1089097, 1054463, 1044550, 1189864, 1021582,
			1095536, 1173812, 21184963, 21084765, 1047981, 1031134, 1153001, 1173578,
			1158103, 1140200, 1189471, 1138187, 1176940, 1075769, 1025218, 1135020,
			1159881, 1091790, 1194448, 1049273, 1122431, 1064637, 1171408, 1044065,
			1159683, 1133503, 1136024, 1143187, 1082173, 1056028, 1125710, 1136640,
			21152227, 1177322, 1163411, 1103861, 1072734, 1166668, 1050846, 1174540,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConditioned(NewMemStore(), tc.profile, 1)
			for i, want := range tc.want {
				if err := c.trip(context.Background(), "get", "k"); err != nil {
					t.Fatalf("draw %d: FailProb 0 tripped: %v", i, err)
				}
				if got := int64(c.sampleDelay(64 << 10)); got != want {
					t.Fatalf("draw %d = %d ns, want %d", i, got, want)
				}
			}
		})
	}
}

// TestConditionedTailDistribution pins the heavy-tail latency model:
// spikes fire at roughly TailProb, spiked draws carry the full TailSpike
// on top of the base delay, and non-spiked draws stay inside
// [RTT, RTT+Jitter]. The rng is seeded, so the assertions are tight
// ranges rather than exact counts to stay robust across rand versions.
func TestConditionedTailDistribution(t *testing.T) {
	profile := NetworkProfile{
		RTT:       1 * time.Millisecond,
		Jitter:    200 * time.Microsecond,
		TailProb:  0.02,
		TailSpike: 20 * time.Millisecond,
	}
	c := NewConditioned(NewMemStore(), profile, 42)

	const n = 100000
	spikeFloor := profile.RTT + profile.TailSpike
	baseCeil := profile.RTT + profile.Jitter
	spikes := 0
	for i := 0; i < n; i++ {
		d := c.sampleDelay(0)
		switch {
		case d >= spikeFloor:
			spikes++
			if d > spikeFloor+profile.Jitter {
				t.Fatalf("spiked delay %v above RTT+Jitter+TailSpike %v", d, spikeFloor+profile.Jitter)
			}
		case d >= profile.RTT && d <= baseCeil:
			// normal draw
		default:
			t.Fatalf("delay %v outside both the base band [%v,%v] and the spike band [%v,...]",
				d, profile.RTT, baseCeil, spikeFloor)
		}
	}
	got := float64(spikes) / n
	if got < 0.015 || got > 0.025 {
		t.Fatalf("spike frequency %.4f, want within [0.015, 0.025] of TailProb %.3f", got, profile.TailProb)
	}
}

// TestConditionedTailDisabled verifies a zero TailProb (every pre-existing
// profile) never spikes: the delay stays within the jitter band.
func TestConditionedTailDisabled(t *testing.T) {
	profile := NetworkProfile{RTT: time.Millisecond, Jitter: 100 * time.Microsecond}
	c := NewConditioned(NewMemStore(), profile, 7)
	for i := 0; i < 10000; i++ {
		if d := c.sampleDelay(0); d < profile.RTT || d > profile.RTT+profile.Jitter {
			t.Fatalf("delay %v escaped [RTT, RTT+Jitter] with no tail configured", d)
		}
	}
}

// TestConditionedTailAddsToTransfer checks the spike rides on top of the
// bandwidth term rather than replacing it, so large payloads keep their
// transfer cost even on spiked operations.
func TestConditionedTailAddsToTransfer(t *testing.T) {
	profile := NetworkProfile{
		RTT:          time.Millisecond,
		BandwidthBps: 1 << 20, // 1 MiB/s: 64KiB costs 62.5ms
		TailProb:     1,       // every draw spikes
		TailSpike:    20 * time.Millisecond,
	}
	c := NewConditioned(NewMemStore(), profile, 1)
	payload := 64 << 10
	transfer := time.Duration(float64(payload) / float64(profile.BandwidthBps) * float64(time.Second))
	want := profile.RTT + profile.TailSpike + transfer
	if d := c.sampleDelay(payload); d != want {
		t.Fatalf("spiked delay with payload = %v, want RTT+TailSpike+transfer = %v", d, want)
	}
}

// TestConditionedTailOps exercises the full op path under a scaled-down
// tail profile so the spike branch runs inside delay(), not just in
// sampleDelay.
func TestConditionedTailOps(t *testing.T) {
	profile := NetworkProfile{RTT: 10 * time.Microsecond, TailProb: 0.5, TailSpike: 50 * time.Microsecond}
	c := NewConditioned(NewMemStore(), profile, 3)
	ctx := context.Background()
	if err := c.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.TotalWait < 20*profile.RTT {
		t.Fatalf("TotalWait %v implausibly small for 21 conditioned ops", s.TotalWait)
	}
}

// TestFlakyInjectsAtRate: a Conditioned store with FailProb 0.5 fails
// about half its operations with ErrTransient, books each in
// NetStats.Failed, and never lets a failed one reach the inner store.
func TestFlakyInjectsAtRate(t *testing.T) {
	ctx := context.Background()
	inner := &countingStore{Store: NewMemStore()}
	inner.Put(ctx, "k", []byte("v"))
	f := NewConditioned(inner, NetworkProfile{FailProb: 0.5}, 1)
	failures := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := f.Get(ctx, "k"); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failures++
		}
	}
	if failures < n/3 || failures > 2*n/3 {
		t.Errorf("injected %d of %d at FailProb 0.5", failures, n)
	}
	if st := f.Stats(); st.Failed != int64(failures) || st.Ops != n {
		t.Errorf("Stats() = %+v, observed %d failures in %d ops", st, failures, n)
	}
	if got, want := inner.gets.Load(), int64(n-failures); got != want {
		t.Errorf("inner store saw %d Gets, want %d: an injected failure reached it", got, want)
	}
}

// TestFlakyRateZeroAndOne: FailProb 0 never fails; FailProb 1 fails every
// operation and none of them reaches the inner store.
func TestFlakyRateZeroAndOne(t *testing.T) {
	ctx := context.Background()
	inner := &countingStore{Store: NewMemStore()}
	inner.Put(ctx, "k", []byte("v"))
	never := NewConditioned(inner, NetworkProfile{}, 1)
	for i := 0; i < 50; i++ {
		if _, err := never.Get(ctx, "k"); err != nil {
			t.Fatalf("FailProb 0 failed: %v", err)
		}
	}
	before := inner.gets.Load()
	always := NewConditioned(inner, NetworkProfile{FailProb: 1}, 1)
	ops := map[string]error{"put": always.Put(ctx, "k", []byte("w")), "delete": always.Delete(ctx, "k")}
	_, ops["get"] = always.Get(ctx, "k")
	_, ops["stat"] = always.Stat(ctx, "k")
	_, ops["list"] = always.List(ctx, "")
	for op, err := range ops {
		if !errors.Is(err, ErrTransient) {
			t.Errorf("FailProb 1 %s: %v, want ErrTransient", op, err)
		}
	}
	if n := inner.gets.Load() - before; n != 0 {
		t.Errorf("FailProb 1 reached the inner store's Get %d times, want 0", n)
	}
	if got, err := inner.Get(ctx, "k"); err != nil || string(got) != "v" {
		t.Errorf("inner k = %q, %v: a failed Put or Delete reached the inner store", got, err)
	}
	if st := always.Stats(); st.Failed != 5 {
		t.Errorf("Failed = %d, want 5", st.Failed)
	}
}

// TestFlakyDeterministicBySeed: the same seed fails the same operations.
func TestFlakyDeterministicBySeed(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	inner.Put(ctx, "k", []byte("v"))
	pattern := func(seed int64) []bool {
		f := NewConditioned(inner, NetworkProfile{FailProb: 0.5}, seed)
		var out []bool
		for i := 0; i < 50; i++ {
			_, err := f.Get(ctx, "k")
			out = append(out, err != nil)
		}
		return out
	}
	a, b := pattern(9), pattern(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

// TestConditionedCancelBooksElapsedWaitOnly pins the stats fix: a
// cancelled operation must book only the wait actually served, not the
// full simulated delay it never sat through.
func TestConditionedCancelBooksElapsedWaitOnly(t *testing.T) {
	c := NewConditioned(NewMemStore(), NetworkProfile{RTT: time.Hour}, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Get(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get returned %v, want context.DeadlineExceeded", err)
	}
	if wait := c.Stats().TotalWait; wait >= time.Minute {
		t.Fatalf("TotalWait = %v: cancelled op booked the full simulated delay", wait)
	}
}
