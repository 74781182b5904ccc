package listcolor

import (
	"fmt"

	"github.com/distec/distec/internal/local"
)

// SolvePairs solves a slack-1 list coloring instance on a pair system: item
// i occupies side keys pairs[i], two items conflict iff they share a key,
// and each active item must pick a color from its list that no conflicting
// active item picks. Every active item's list must be strictly larger than
// its active conflict degree (the (deg(e)+1)-list condition).
//
// This is the engine behind SolveBase, exposed at the pair-system level so
// the paper's recursion can run it on virtual graphs (§4.2) and on subspace
// assignment instances, where the "nodes" are virtual copies rather than
// graph nodes.
//
// initColors optionally provides a proper coloring of the active conflict
// system with initX colors; nil falls back to item indices (X = len(pairs)).
// Returns a color per item (−1 for inactive ones).
func SolvePairs(pairs [][2]int64, active []bool, lists [][]int, initColors []int, initX int, run local.Engine) ([]int, local.Stats, error) {
	if run == nil {
		run = local.Sequential
	}
	m := len(pairs)
	if len(lists) != m {
		return nil, local.Stats{}, fmt.Errorf("listcolor: %d lists for %d items", len(lists), m)
	}
	if initColors != nil && len(initColors) != m {
		return nil, local.Stats{}, fmt.Errorf("listcolor: initColors has %d entries for %d items", len(initColors), m)
	}
	if active == nil {
		init, x := initColors, initX
		if init == nil {
			init, x = make([]int, m), m
			for i := range init {
				init[i] = i
			}
		}
		return SolveOnTopology(local.PairConflict(pairs), init, x, lists, run)
	}
	// Compact to the active items before building the conflict topology:
	// callers hand in sparse masks over large item universes, and topology
	// construction must not pay for inactive items.
	var orig []int
	for i := 0; i < m; i++ {
		if active[i] {
			orig = append(orig, i)
		}
	}
	cPairs := make([][2]int64, len(orig))
	cLists := make([][]int, len(orig))
	cInit := make([]int, len(orig))
	x := initX
	if initColors == nil {
		x = m
	}
	for i, oe := range orig {
		cPairs[i] = pairs[oe]
		cLists[i] = lists[oe]
		cInit[i] = oe
		if initColors != nil {
			cInit[i] = initColors[oe]
		}
	}
	chosen, stats, err := SolvePairs(cPairs, nil, cLists, cInit, x, run)
	if err != nil {
		return nil, stats, err
	}
	out := make([]int, m)
	for e := range out {
		out[e] = -1
	}
	for i, oe := range orig {
		out[oe] = chosen[i]
	}
	return out, stats, nil
}
