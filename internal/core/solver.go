package core

import (
	"fmt"
	"sort"

	"github.com/distec/distec/internal/defective"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// instance is a compact list coloring sub-instance: every item is active,
// items keep the ascending order of the parent's items, and base is the
// global initial coloring restricted to them. The creator of a
// sub-instance holds the item list that maps its results back.
type instance struct {
	pairs [][2]int64
	lists [][]int
	base  []int // proper coloring of the items' conflict system, baseX colors
	c     int   // palette size: list colors lie in [0, c)
}

// sub returns the sub-instance on items (ascending) with the given lists.
func (inst instance) sub(items []int32, lists [][]int) instance {
	return instance{pairs: gather(inst.pairs, items), lists: lists, base: gather(inst.base, items), c: inst.c}
}

// Solver executes the paper's algorithm with fixed parameters. It is
// created per Solve call and is not safe for concurrent use.
type Solver struct {
	params Params
	run    local.Engine
	baseX  int // colors of the global initial coloring
	trace  *Trace
	// prunedList's palette-sized marks, reused across calls and never
	// shared with protocols.
	stamp []int32
	gen   int32 // current mark
}

// Result is the outcome of Solve.
type Result struct {
	// Colors maps item index to its chosen color (−1 for inactive items).
	Colors []int
	// Stats is the total LOCAL cost, sequentially composed across the whole
	// recursion (independent same-level sub-instances execute simultaneously
	// and are charged once by construction: they are solved in a single
	// combined system).
	Stats local.Stats
	// Trace holds instrumentation counters.
	Trace Trace
}

// Solve runs the full algorithm of Theorem 4.1 on a pair system: item i
// occupies side keys pairs[i], conflicting items must receive different
// colors, and each active item must be colored from its list. Every active
// item's list must be strictly larger than its active conflict degree (the
// (deg(e)+1)-list edge coloring condition); C is the palette size.
//
// The returned coloring always covers every active item: in practical mode
// deferrals are retried by the enclosing sweeps and the final base solve is
// guaranteed by the invariant that coloring a neighbor removes at most one
// list color while reducing the uncolored degree by exactly one.
func Solve(pairs [][2]int64, active []bool, lists [][]int, c int, params Params, run local.Engine) (*Result, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if run == nil {
		run = local.Sequential
	}
	m := len(pairs)
	if len(lists) != m || (active != nil && len(active) != m) {
		return nil, fmt.Errorf("core: lists/active sized %d/%d for %d items", len(lists), len(active), m)
	}
	s := &Solver{params: params, run: run, trace: &Trace{}}
	// The top-level instance holds the active items only; orig maps it back
	// (nil: every item is active and the instance is the input itself).
	orig := compactActive(active)
	top := instance{pairs: pairs, lists: lists, c: c}
	if orig != nil {
		top.pairs, top.lists = gather(pairs, orig), gather(lists, orig)
	}
	item := func(i int) int {
		if orig == nil {
			return i
		}
		return int(orig[i])
	}
	ix := newSideIndex(top.pairs)
	for i, l := range top.lists {
		e := item(i)
		if deg := ix.degree(i); len(l) <= deg {
			return nil, fmt.Errorf("core: item %d violates (deg+1)-list condition: |L|=%d, deg=%d", e, len(l), deg)
		}
		for j, col := range l {
			if col < 0 || col >= c {
				return nil, fmt.Errorf("core: item %d color %d outside palette [0,%d)", e, col, c)
			}
			if j > 0 && l[j-1] >= col {
				return nil, fmt.Errorf("core: item %d list not strictly ascending", e)
			}
		}
	}

	var stats local.Stats
	// Theorem 4.1 preamble: one O(log* n) Linial pass computes the global
	// O(Δ̄²)-coloring handed to every subsequent subroutine as its initial
	// coloring, so log* is paid exactly once.
	base, st, err := s.prepare(top.pairs, orig, m)
	seq(&stats, st)
	if err != nil {
		return nil, err
	}
	top.base = base

	colors, st, err := s.solveSlack1(top, 0)
	seq(&stats, st)
	if err != nil {
		return nil, err
	}
	// Output contract: every active item colored from its list, no two
	// conflicting items sharing a color. O(Σdeg) — negligible next to the
	// solve itself, and it turns any internal bug into an error rather than
	// a silently wrong coloring.
	for i, col := range colors {
		if col < 0 {
			return nil, fmt.Errorf("core: item %d left uncolored (bug)", item(i))
		}
		if !containsSorted(top.lists[i], col) {
			return nil, fmt.Errorf("core: item %d color %d not in its list (bug)", item(i), col)
		}
		for _, k := range ix.slots[i] {
			for _, f := range ix.at(k) {
				if int(f) != i && colors[f] == col {
					return nil, fmt.Errorf("core: items %d and %d share color %d (bug)", item(i), item(int(f)), col)
				}
			}
		}
	}
	return &Result{Colors: scatter(colors, orig, m), Stats: stats, Trace: *s.trace}, nil
}

// containsSorted reports whether ascending list l contains x.
func containsSorted(l []int, x int) bool {
	i := sort.SearchInts(l, x)
	return i < len(l) && l[i] == x
}

// solveSlack1 implements Lemma 4.2, T(Δ̄, 1, C): sweeps of defective
// coloring with parameter β, iterating over the O(β²) defect classes,
// marking edges whose pruned list exceeds half their degree, solving each
// marked class as a slack-β instance, and recursing on the uncolored
// remainder (whose conflict degree provably halves per sweep). The result
// is indexed like inst.
func (s *Solver) solveSlack1(inst instance, depth int) ([]int, local.Stats, error) {
	if depth > s.trace.DeepestRecursion {
		s.trace.DeepestRecursion = depth
	}
	n := len(inst.pairs)
	colors := make([]int, n)
	cur := make([]bool, n)
	for e := range colors {
		colors[e] = -1
		cur[e] = true
	}
	ix := newSideIndex(inst.pairs)
	var stats local.Stats

	for sweep := 0; anyActive(cur); sweep++ {
		deg := ix.degrees(cur)
		dbar := 0
		for _, d := range deg {
			dbar = max(dbar, d)
		}
		if depth == 0 {
			s.trace.SweepDegrees = append(s.trace.SweepDegrees, dbar)
		}
		beta := max(1, s.params.Beta(dbar, inst.c))
		if dbar <= s.params.BaseDegree || 2*beta >= dbar || sweep >= 64 {
			// Base cases: constant degree (the paper's T(O(1),·,·)), or a β
			// so large that the slack machinery cannot gain (for feasible Δ̄
			// the theory parameterization always lands here — experiment E9),
			// or the sweep guard (practical-mode stall safety).
			if 2*beta >= dbar && dbar > s.params.BaseDegree {
				s.trace.BetaBailouts++
			}
			st, err := s.finishBase(inst, cur, colors, ix)
			seq(&stats, st)
			if err != nil {
				return nil, stats, err
			}
			break
		}
		s.trace.OuterSweeps++

		local.SetSpanLabel(s.run, "defective")
		def, err := defective.Color(inst.pairs, cur, beta, inst.base, s.baseX, s.run)
		if err != nil {
			return nil, stats, err
		}
		seq(&stats, def.Stats)
		s.trace.DefectiveCalls++

		// The uncolored items of each defect class, ascending.
		byClass := make([][]int32, def.Palette)
		for e, c := range def.Colors {
			if cur[e] {
				byClass[c] = append(byClass[c], int32(e))
			}
		}

		colored := 0
		for class, members := range byClass {
			if len(members) == 0 {
				continue
			}
			// One round: members learn colors already used next to them,
			// prune their lists, and mark themselves active if more than
			// half their (sweep-start) degree remains available.
			stats.Rounds++
			var marked []int32
			var subLists [][]int
			for _, e := range members {
				pruned := s.prunedList(inst, colors, ix, int(e))
				if 2*len(pruned) > deg[e] {
					marked = append(marked, e)
					subLists = append(subLists, pruned)
				}
			}
			if len(marked) == 0 {
				continue
			}
			sub := inst.sub(marked, subLists)
			if s.params.Strict {
				// Lemma 4.2's slack guarantee for the class instance:
				// |Le| > β · deg_sub(e).
				subIx := newSideIndex(sub.pairs)
				for i, e := range marked {
					if d := subIx.degree(i); len(subLists[i]) <= beta*d {
						return nil, stats, fmt.Errorf("core: class %d item %d has |L|=%d ≤ β·deg'=%d·%d (Lemma 4.2 violated)",
							class, e, len(subLists[i]), beta, d)
					}
				}
			}
			subColors, st, err := s.solveSlackS(sub, depth)
			seq(&stats, st)
			if err != nil {
				return nil, stats, err
			}
			s.trace.ClassInstances++
			for i, e := range marked {
				if subColors[i] >= 0 {
					colors[e] = subColors[i]
					cur[e] = false
					colored++
				}
			}
		}
		if colored == 0 {
			// Practical-mode stall: every marked edge was deferred. The
			// global invariant keeps the remainder base-solvable.
			st, err := s.finishBase(inst, cur, colors, ix)
			seq(&stats, st)
			if err != nil {
				return nil, stats, err
			}
			break
		}
	}
	return colors, stats, nil
}

// finishBase colors every remaining edge with the base solver after pruning
// lists against the colors already assigned in this scope.
func (s *Solver) finishBase(inst instance, cur []bool, colors []int, ix *sideIndex) (local.Stats, error) {
	var stats local.Stats
	var rest []int32
	var lists [][]int
	for e, c := range cur {
		if c {
			rest = append(rest, int32(e))
			lists = append(lists, s.prunedList(inst, colors, ix, e))
		}
	}
	if len(rest) == 0 {
		return stats, nil
	}
	stats.Rounds++ // learning the neighbors' colors for the pruning
	local.SetSpanLabel(s.run, "base")
	sub := inst.sub(rest, lists)
	got, st, err := listcolor.SolvePairs(sub.pairs, nil, sub.lists, sub.base, s.baseX, s.run)
	seq(&stats, st)
	if err != nil {
		return stats, fmt.Errorf("core: base solve of remainder: %w", err)
	}
	for i, e := range rest {
		colors[e] = got[i]
		cur[e] = false
	}
	return stats, nil
}

// prunedList returns item e's list minus the colors of its already-colored
// neighbors in the instance (information one announcement round away). It
// returns the list itself when nothing is pruned.
func (s *Solver) prunedList(inst instance, colors []int, ix *sideIndex, e int) []int {
	if len(s.stamp) < inst.c {
		s.stamp = make([]int32, inst.c)
		s.gen = 0
	}
	if s.gen++; s.gen < 0 { // wrapped: start the marks over
		clear(s.stamp)
		s.gen = 1
	}
	used := false
	for _, k := range ix.slots[e] {
		for _, f := range ix.at(k) {
			if c := colors[f]; int(f) != e && c >= 0 {
				s.stamp[c] = s.gen
				used = true
			}
		}
	}
	if !used {
		return inst.lists[e]
	}
	out := make([]int, 0, len(inst.lists[e]))
	for _, c := range inst.lists[e] {
		if s.stamp[c] != s.gen {
			out = append(out, c)
		}
	}
	return out
}

// solveSlackS implements Lemma 4.5, T(Δ̄, S, C): chain color space
// reductions (Lemma 4.3) until the palette is at most StopPalette, then
// solve all surviving sub-instances — they live on disjoint palettes and
// disjoint derived key spaces, so one combined base solve covers them all
// simultaneously. The result is indexed like inst, −1 for deferred items.
func (s *Solver) solveSlackS(inst instance, depth int) ([]int, local.Stats, error) {
	n := len(inst.pairs)
	var stats local.Stats
	// The chain's working set, compacted as items are deferred: item i of
	// the current level is item at[i] of inst.
	at := make([]int32, n)
	for i := range at {
		at[i] = int32(i)
	}
	cur := assignInput{
		pairs: append([][2]int64(nil), inst.pairs...),
		lists: append([][]int(nil), inst.lists...),
		lo:    make([]int, n),
		base:  append([]int(nil), inst.base...),
		size:  inst.c,
		depth: depth,
	}
	// keep moves working item i to position k (k ≤ i).
	keep := func(k, i int) {
		at[k], cur.pairs[k], cur.lists[k], cur.lo[k], cur.base[k] = at[i], cur.pairs[i], cur.lists[i], cur.lo[i], cur.base[i]
	}
	truncate := func(k int) {
		at, cur.pairs, cur.lists, cur.lo, cur.base = at[:k], cur.pairs[:k], cur.lists[:k], cur.lo[:k], cur.base[:k]
	}

	for cur.size > s.params.StopPalette && len(at) > 0 {
		ix := newSideIndex(cur.pairs)
		cur.p = max(2, min(s.params.P(ix.maxDegree(), inst.c), cur.size))
		res, err := s.assignSubspaces(cur, ix)
		seq(&stats, res.stats)
		if err != nil {
			return nil, stats, err
		}
		s.trace.ChainLevels++

		// Refine: keys, intervals and lists follow the chosen subspace.
		// Derived keys are numbered in first-seen order over the items.
		q := int64(res.pt.Q)
		intern := make(map[int64]int64)
		derive := func(slot int32, j int) int64 {
			k := int64(slot)*q + int64(j)
			id, ok := intern[k]
			if !ok {
				id = int64(len(intern))
				intern[k] = id
			}
			return id
		}
		kept := 0
		for i, j := range res.assign {
			if j < 0 {
				if s.params.Strict {
					return nil, stats, fmt.Errorf("core: item %d unassigned in strict mode (bug)", at[i])
				}
				continue // deferred to the enclosing sweep
			}
			partLo := cur.lo[i] + j*res.pt.PartSize
			partHi := partLo + res.pt.PartSize
			l := cur.lists[i]
			cur.lists[i] = l[sort.SearchInts(l, partLo):sort.SearchInts(l, partHi)]
			cur.lo[i] = partLo
			cur.pairs[i] = [2]int64{derive(ix.slots[i][0], j), derive(ix.slots[i][1], j)}
			keep(kept, i)
			kept++
		}
		truncate(kept)
		cur.size = res.pt.PartSize
	}

	// Drop items whose slack budget ran out (never in strict mode), then
	// run the combined base solve.
	for {
		deg := newSideIndex(cur.pairs).degrees(nil)
		kept := 0
		for i, d := range deg {
			if len(cur.lists[i]) <= d {
				if s.params.Strict {
					return nil, stats, fmt.Errorf("core: chain end item %d has |L|=%d ≤ deg=%d (slack budget exhausted in strict mode)",
						at[i], len(cur.lists[i]), d)
				}
				s.trace.Deferred++
				continue
			}
			keep(kept, i)
			kept++
		}
		if kept == len(at) {
			break
		}
		truncate(kept)
	}
	out := make([]int, n)
	for e := range out {
		out[e] = -1
	}
	if len(at) == 0 {
		return out, stats, nil
	}
	local.SetSpanLabel(s.run, "base")
	got, st, err := listcolor.SolvePairs(cur.pairs, nil, cur.lists, cur.base, s.baseX, s.run)
	seq(&stats, st)
	if err != nil {
		return nil, stats, fmt.Errorf("core: chain-end base solve: %w", err)
	}
	for i, e := range at {
		out[e] = got[i]
	}
	return out, stats, nil
}
