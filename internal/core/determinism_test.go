package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
)

// TestBuildVirtualPairsDeterministic pins the fix for the map-order bug
// in buildVirtualPairs: virtual side-key IDs are numbered in first-seen
// order, so walking side keys in map-iteration order minted IDs that two
// runs over the same input could disagree on. Every run, on a fresh side
// index each time, must now produce the identical virtual pair system,
// and IDs must follow ascending side-key order.
func TestBuildVirtualPairsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m, keys = 400, 60
	pairs := make([][2]int64, m)
	var members []int32
	for e := range pairs {
		a := rng.Int63n(keys)
		b := rng.Int63n(keys)
		for b == a {
			b = rng.Int63n(keys)
		}
		pairs[e] = [2]int64{a, b}
		if e%3 != 0 {
			members = append(members, int32(e))
		}
	}

	var ref [][2]int64
	for trial := 0; trial < 25; trial++ {
		vp := buildVirtualPairs(newSideIndex(pairs), members, 4)
		if trial == 0 {
			ref = vp
			continue
		}
		for i := range vp {
			if vp[i] != ref[i] {
				t.Fatalf("trial %d: member %d got pair %v, first run had %v", trial, members[i], vp[i], ref[i])
			}
		}
	}
	// The walk starts at the lowest side key: its first member takes
	// virtual key 0 there.
	low := int64(keys)
	for _, e := range members {
		low = min(low, pairs[e][0], pairs[e][1])
	}
	for i, e := range members {
		side := slices.Index(pairs[e][:], low)
		if side < 0 {
			continue
		}
		if ref[i][side] != 0 {
			t.Fatalf("member %d, first on key %d: virtual pair %v, want virtual key 0 there", e, low, ref[i])
		}
		break
	}
}

// TestSpaceReduceOnceDeterministic runs the whole reduction twice on one
// instance and demands byte-identical assignments — the end-to-end
// consequence of the interning fix (cross-engine equivalence and WAL
// replay both assume repeated solves agree).
func TestSpaceReduceOnceDeterministic(t *testing.T) {
	g := graph.RandomRegular(64, 24, 3)
	pairs := graphPairs(g)
	c := 256
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = palette
	}
	params := Practical()
	first, err := SpaceReduceOnce(pairs, nil, lists, c, 16, params, local.Sequential)
	if err != nil {
		t.Fatalf("first SpaceReduceOnce: %v", err)
	}
	for trial := 0; trial < 5; trial++ {
		again, err := SpaceReduceOnce(pairs, nil, lists, c, 16, params, local.Sequential)
		if err != nil {
			t.Fatalf("repeat SpaceReduceOnce: %v", err)
		}
		for e := range first.Assign {
			if again.Assign[e] != first.Assign[e] {
				t.Fatalf("trial %d: item %d assigned %d, first run assigned %d",
					trial, e, again.Assign[e], first.Assign[e])
			}
		}
	}
}
