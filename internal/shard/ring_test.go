package shard

import (
	"fmt"
	"testing"
)

// ringKeys synthesises n block-shaped keys.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("datasets/tennessee/blocks/v/0/%06d", i)
	}
	return keys
}

func ringOf(nodes ...string) *Ring {
	r := NewRing(0)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// TestRingPlacementDeterministic: placement is a pure function of the
// membership set — insertion order must not matter, and rebuilding the
// ring must reproduce it. Independent routers rely on this to agree
// without coordination.
func TestRingPlacementDeterministic(t *testing.T) {
	a := ringOf("n0", "n1", "n2", "n3")
	b := ringOf("n3", "n1", "n0", "n2")
	for _, key := range ringKeys(2000) {
		ra, rb := a.Replicas(key, 2), b.Replicas(key, 2)
		if len(ra) != 2 || len(rb) != 2 || ra[0] != rb[0] || ra[1] != rb[1] {
			t.Fatalf("placement differs for %q: %v vs %v", key, ra, rb)
		}
	}
}

// TestRingReplicasDistinct: the replica set never repeats a node and
// clamps to the membership size.
func TestRingReplicasDistinct(t *testing.T) {
	r := ringOf("n0", "n1", "n2")
	for _, key := range ringKeys(500) {
		reps := r.Replicas(key, 5)
		if len(reps) != 3 {
			t.Fatalf("Replicas(%q, 5) on a 3-node ring returned %v", key, reps)
		}
		seen := map[string]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("duplicate node in replica set %v for %q", reps, key)
			}
			seen[n] = true
		}
	}
	if got := ringOf().Replicas("k", 2); got != nil {
		t.Fatalf("empty ring returned replicas %v", got)
	}
}

// TestRingDistributionBalance: with DefaultVirtualNodes, primary load
// per node stays within a reasonable factor of uniform.
func TestRingDistributionBalance(t *testing.T) {
	r := ringOf("n0", "n1", "n2", "n3")
	spread := map[string]int{}
	for _, k := range ringKeys(20000) {
		spread[r.Primary(k)]++
	}
	want := 20000 / 4
	for node, got := range spread {
		if got < want/2 || got > want*2 {
			t.Errorf("node %s owns %d of 20000 keys; want within [%d, %d] of uniform %d",
				node, got, want/2, want*2, want)
		}
	}
}

// TestRingRebalanceAddMovesOnlyFraction is the membership-change pin:
// growing N=4 to N=5 must move only ~K/5 primaries, and every moved key
// must land on the new node — existing nodes never trade keys among
// themselves (the consistent-hashing stability guarantee).
func TestRingRebalanceAddMovesOnlyFraction(t *testing.T) {
	const K = 10000
	keys := ringKeys(K)
	r := ringOf("n0", "n1", "n2", "n3")
	before := make(map[string]string, K)
	for _, k := range keys {
		before[k] = r.Primary(k)
	}

	r.Add("n4")
	moved := 0
	for _, k := range keys {
		now := r.Primary(k)
		if now == before[k] {
			continue
		}
		moved++
		if now != "n4" {
			t.Fatalf("key %q moved %s -> %s, but only the new node n4 may gain keys", k, before[k], now)
		}
	}
	ideal := K / 5
	if moved < ideal/2 || moved > ideal*2 {
		t.Fatalf("adding 1 node to 4 moved %d of %d keys; want ~K/N = %d (accepting [%d, %d])",
			moved, K, ideal, ideal/2, ideal*2)
	}
	t.Logf("add n4: moved %d/%d primaries (ideal %d)", moved, K, ideal)
}

// TestRingRebalanceRemoveMovesOnlyVictimKeys: a ring without n2 places
// exactly n2's keys elsewhere than the ring with it; everyone else's
// placement is untouched.
func TestRingRebalanceRemoveMovesOnlyVictimKeys(t *testing.T) {
	const K = 10000
	keys := ringKeys(K)
	with, without := ringOf("n0", "n1", "n2", "n3"), ringOf("n0", "n1", "n3")
	moved := 0
	for _, k := range keys {
		before, now := with.Primary(k), without.Primary(k)
		if before == "n2" {
			moved++
			continue
		}
		if now != before {
			t.Fatalf("key %q moved %s -> %s though its owner survived", k, before, now)
		}
	}
	if moved == 0 {
		t.Fatal("removing a node moved no keys; distribution test should have caught an empty node")
	}
	t.Logf("remove n2: reassigned %d/%d primaries", moved, K)
}

// TestRingAddIdempotent: adding a present node is a no-op.
func TestRingAddIdempotent(t *testing.T) {
	r := ringOf("n0", "n1")
	r.Add("n0")
	if r.Len() != 2 || len(r.vnodes) != 2*r.virtualNodes {
		t.Fatalf("double Add changed the ring: %d nodes, %d vnodes", r.Len(), len(r.vnodes))
	}
}

// Primary returns the node owning key, or "" on an empty ring.
func (r *Ring) Primary(key string) string {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}
