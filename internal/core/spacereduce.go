package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// assignInput is one invocation of the list color space reduction
// (Lemma 4.3) over a compact conflict system: every item takes part. Each
// item owns a palette interval [lo[i], lo[i]+size) — items sharing a side
// key always share an interval, because the Lemma 4.5 chain refines side
// keys and intervals together — and a list of absolute colors inside its
// interval. base is the global initial coloring of the items.
type assignInput struct {
	pairs [][2]int64
	lists [][]int
	lo    []int
	base  []int
	size  int
	p     int
	depth int
}

// assignResult carries the chosen subspace index per item (−1 for deferred
// items), the partition used, and the LOCAL cost.
type assignResult struct {
	assign []int
	pt     Partition
	stats  local.Stats
}

// assignSubspaces implements Lemma 4.3: assign one of the q ≤ 2p palette
// subspaces to every item so that Eq. (2) holds —
// deg′(e) ≤ 24·H_q·log p · |L′e|/|Le| · deg(e) — in
// (log p)·(1 + T(2p−1, 1, 2p)) rounds. ix is the side index of in.pairs.
func (s *Solver) assignSubspaces(in assignInput, ix *sideIndex) (assignResult, error) {
	local.SetSpanLabel(s.run, "chain")
	n := len(in.pairs)
	pt := MakePartition(in.size, in.p)
	q := pt.Q
	res := assignResult{assign: make([]int, n), pt: pt}
	for i := range res.assign {
		res.assign[i] = -1
	}
	deg := ix.degrees(nil)

	// Per-item partition counts and levels (all local computation);
	// counts[e] is item e's row of one flat table.
	flat := make([]int, n*q)
	counts := make([][]int, n)
	level := make([]int, n)
	maxLevel := int(math.Log2(float64(q)))
	for e, l := range in.lists {
		counts[e] = flat[e*q : (e+1)*q : (e+1)*q]
		for _, c := range l {
			off := c - in.lo[e]
			if off < 0 || off >= in.size {
				return res, fmt.Errorf("core: item %d color %d outside its interval [%d,%d)", e, c, in.lo[e], in.lo[e]+in.size)
			}
			counts[e][pt.PartOf(off)]++
		}
		lv, ok := Level(counts[e], len(l))
		if !ok {
			return res, fmt.Errorf("core: item %d has no level (Lemma 4.4 violated — bug)", e)
		}
		level[e] = lv
		if lv < len(s.trace.LevelHistogram) {
			s.trace.LevelHistogram[lv]++
		}
	}

	// Ablation mode (experiment E13): every item takes the subspace with
	// the largest intersection; no phases, no Eq. (2) guarantee (the audit
	// below still measures the damage, but never asserts).
	if s.params.DirectAssignment {
		for e := range res.assign {
			res.assign[e] = largestPart(counts[e])
			s.trace.DirectAssigns++
		}
		res.stats.Rounds++ // announcing the choice
		return res, s.auditEq2(in, ix, res, counts, deg, false)
	}

	// Levels ≤ 3: pick the largest intersection directly. Even if every
	// neighbor chose the same subspace, |L′| ≥ |L|/(16·H_q) satisfies
	// Eq. (2). One announcement round, charged at the end alongside the
	// phase schedule.
	for e := range res.assign {
		if level[e] <= 3 {
			res.assign[e] = largestPart(counts[e])
			s.trace.DirectAssigns++
		}
	}
	res.stats.Rounds++ // announce direct assignments

	// E(1): level > 3 and deg ≥ 2^level, processed in phases ℓ = 4..⌊log q⌋.
	// E(2): level > 3 and deg < 2^level, processed after all phases.
	for l := 4; l <= maxLevel; l++ {
		var members []int32
		for e, lv := range level {
			if lv == l && deg[e] >= 1<<l {
				members = append(members, int32(e))
			}
		}
		if len(members) == 0 {
			continue
		}
		st, err := s.runPhase(in, ix, res.assign, counts, deg, members, l)
		seq(&res.stats, st)
		if err != nil {
			return res, err
		}
	}

	// E(2).
	var e2 []int32
	for e, lv := range level {
		if lv > 3 && deg[e] < 1<<lv {
			e2 = append(e2, int32(e))
		}
	}
	if len(e2) > 0 {
		st, err := s.runE2(in, ix, res.assign, counts, level, e2)
		seq(&res.stats, st)
		if err != nil {
			return res, err
		}
	}

	// Eq. (2) audit: measure the worst degradation factor and, in strict
	// mode, assert the paper's bound.
	return res, s.auditEq2(in, ix, res, counts, deg, s.params.Strict)
}

// largestPart returns the part with the largest count, the lowest index
// among ties: the first entry of sortedByCountDesc, without the sort.
func largestPart(counts []int) int {
	best := 0
	for j, c := range counts {
		if c > counts[best] {
			best = j
		}
	}
	return best
}

// auditEq2 measures the Eq. (2) degradation factor of every assigned item
// and, when assert is set, errors if the paper's bound
// 24·H_q·log p · |L′e|/|Le| is exceeded.
func (s *Solver) auditEq2(in assignInput, ix *sideIndex, res assignResult, counts [][]int, deg []int, assert bool) error {
	bound := 24 * Harmonic(res.pt.Q) * math.Max(1, math.Log2(float64(in.p)))
	for e, j := range res.assign {
		if j < 0 || deg[e] == 0 {
			continue
		}
		degPrime := 0
		for _, k := range ix.slots[e] {
			for _, f := range ix.at(k) {
				if int(f) != e && res.assign[f] == j {
					degPrime++
				}
			}
		}
		newLen := counts[e][j]
		if newLen == 0 {
			return fmt.Errorf("core: item %d assigned empty subspace %d (bug)", e, j)
		}
		factor := float64(degPrime) * float64(len(in.lists[e])) / (float64(newLen) * float64(deg[e]))
		if factor > s.trace.Eq2Worst {
			s.trace.Eq2Worst = factor
		}
		if assert && factor > bound+1e-9 {
			return fmt.Errorf("core: Eq.(2) violated at item %d: factor %.3f > bound %.3f (deg=%d deg'=%d |L|=%d |L'|=%d q=%d p=%d)",
				e, factor, bound, deg[e], degPrime, len(in.lists[e]), newLen, res.pt.Q, in.p)
		}
	}
	return nil
}

// runPhase executes phase ℓ of the E(1) machinery: compute Je for every
// member, split nodes into virtual copies of ≤ 2^(ℓ−2) phase edges, and
// solve the (deg(e)+1)-list coloring on the virtual graph with palette q.
func (s *Solver) runPhase(in assignInput, ix *sideIndex, assign []int, counts [][]int, deg []int, members []int32, l int) (local.Stats, error) {
	var stats local.Stats
	stats.Rounds++ // learn neighbors' prior assignments (Je determination)
	s.trace.PhaseInstances++

	// Je: candidate subspaces with large intersection and few prior takers.
	q := len(counts[members[0]])
	takers := make([]int, q)
	je := make([][]int, len(members))
	for i, e := range members {
		clear(takers)
		for _, k := range ix.slots[e] {
			for _, f := range ix.at(k) {
				if f != e && assign[f] >= 0 {
					takers[assign[f]]++
				}
			}
		}
		budget := deg[e] / (1 << (l - 1))
		var keep []int
		for _, j := range LevelCandidates(counts[e], len(in.lists[e]), l) {
			if takers[j] <= budget {
				keep = append(keep, j)
			}
		}
		sort.Ints(keep)
		if s.params.Strict && len(keep) < 1<<(l-1) {
			return stats, fmt.Errorf("core: phase %d item %d has |Je|=%d < 2^(ℓ−1)=%d (Lemma 4.3 bookkeeping violated)",
				l, e, len(keep), 1<<(l-1))
		}
		je[i] = keep
	}

	// Virtual graph: each side key splits its phase members into groups of
	// at most 2^(ℓ−2); the virtual line-graph degree is ≤ 2^(ℓ−1)−2.
	virtual := buildVirtualPairs(ix, members, 1<<(l-2))
	vix := newSideIndex(virtual)

	// The assignment instance: lists are the Je sets over palette {0..q−1},
	// on the members whose Je beats their virtual degree.
	var kept []int32 // positions in members
	for i, e := range members {
		vdeg := vix.degree(i)
		if vdeg > (1<<(l-1))-2 {
			return stats, fmt.Errorf("core: phase %d virtual degree %d exceeds 2^(ℓ−1)−2=%d (bug)", l, vdeg, (1<<(l-1))-2)
		}
		if len(je[i]) <= vdeg {
			if s.params.Strict {
				return stats, fmt.Errorf("core: phase %d item %d: |Je|=%d ≤ virtual degree %d", l, e, len(je[i]), vdeg)
			}
			// Practical mode: defer this item; shrink its footprint.
			s.trace.Deferred++
			continue
		}
		kept = append(kept, int32(i))
	}
	vinst := instance{
		pairs: gather(virtual, kept),
		lists: gather(je, kept),
		base:  gather(in.base, gather(members, kept)),
		c:     q,
	}
	choice, st, err := s.solveVirtual(vinst, in.depth)
	seq(&stats, st)
	if err != nil {
		return stats, err
	}
	for i, k := range kept {
		if choice[i] >= 0 {
			assign[members[k]] = choice[i]
		} else {
			s.trace.Deferred++
		}
	}
	return stats, nil
}

// runE2 assigns subspaces to the low-degree, high-level items after all
// phases: each picks among its > deg(e) non-empty candidate subspaces one
// that no already-assigned neighbor took, via a (deg+1)-list coloring over
// the E(2) subsystem with palette q.
func (s *Solver) runE2(in assignInput, ix *sideIndex, assign []int, counts [][]int, level []int, e2 []int32) (local.Stats, error) {
	var stats local.Stats
	stats.Rounds++ // learn the subspaces taken by assigned neighbors
	s.trace.E2Instances++

	inE2 := make([]bool, len(in.pairs))
	for _, e := range e2 {
		inE2[e] = true
	}
	lists := make([][]int, len(e2))
	taken := make([]bool, len(counts[e2[0]]))
	for {
		changed := false
		for i, e := range e2 {
			if !inE2[e] {
				continue
			}
			clear(taken)
			degE2 := 0
			for _, k := range ix.slots[e] {
				for _, f := range ix.at(k) {
					if f == e {
						continue
					}
					if assign[f] >= 0 {
						taken[assign[f]] = true
					} else if inE2[f] {
						degE2++
					}
				}
			}
			var free []int
			for _, j := range LevelCandidates(counts[e], len(in.lists[e]), level[e]) {
				if !taken[j] {
					free = append(free, j)
				}
			}
			sort.Ints(free)
			if len(free) <= degE2 {
				if s.params.Strict {
					return stats, fmt.Errorf("core: E(2) item %d has %d free subspaces for E2-degree %d", e, len(free), degE2)
				}
				s.trace.Deferred++
				inE2[e] = false // defer: removing it can only help others
				changed = true
				continue
			}
			lists[i] = free
		}
		if !changed {
			break
		}
	}
	var kept []int32 // positions in e2
	for i, e := range e2 {
		if inE2[e] {
			kept = append(kept, int32(i))
		}
	}
	if len(kept) == 0 {
		return stats, nil
	}
	items := gather(e2, kept)
	local.SetSpanLabel(s.run, "chain")
	choice, st, err := listcolor.SolvePairs(gather(in.pairs, items), nil, gather(lists, kept), gather(in.base, items), s.baseX, s.run)
	seq(&stats, st)
	if err != nil {
		return stats, fmt.Errorf("core: E(2) assignment: %w", err)
	}
	for i, e := range items {
		if choice[i] >= 0 {
			assign[e] = choice[i]
		}
	}
	return stats, nil
}

// solveVirtual solves the T(2p−1, 1, 2p)-style sub-instance arising inside
// the space reduction. Large instances recurse into the full algorithm
// (realizing the Δ̄ → 2√Δ̄ outer recursion of §4.3); small ones go to the
// base solver.
func (s *Solver) solveVirtual(inst instance, depth int) ([]int, local.Stats, error) {
	dbar := newSideIndex(inst.pairs).maxDegree()
	if dbar > s.params.BaseDegree && depth+1 < s.params.MaxDepth {
		s.trace.VirtualRecursion++
		return s.solveSlack1(inst, depth+1)
	}
	local.SetSpanLabel(s.run, "base")
	return listcolor.SolvePairs(inst.pairs, nil, inst.lists, inst.base, s.baseX, s.run)
}

// buildVirtualPairs splits every side key into virtual copies holding at
// most groupSize members each (Figure 6), returning the virtual pair of
// each member, in members order.
func buildVirtualPairs(ix *sideIndex, members []int32, groupSize int) [][2]int64 {
	pos := make([]int32, len(ix.slots)) // item → 1 + position in members, 0 if none
	seen := make([]bool, len(ix.keys))
	var slots []int32 // slots holding a member
	for i, e := range members {
		pos[e] = int32(i) + 1
		for _, k := range ix.slots[e] {
			if !seen[k] {
				seen[k] = true
				slots = append(slots, k)
			}
		}
	}
	// Walk side keys in ascending key order: derive hands out IDs in
	// first-seen order, so the walk order fixes the virtual pair IDs, and
	// it must not depend on slot numbering or on any map's order (that
	// would break cross-engine equivalence and WAL replay of any solve
	// that recurses through here).
	sort.Slice(slots, func(i, j int) bool { return ix.keys[slots[i]] < ix.keys[slots[j]] })
	virtual := make([][2]int64, len(members))
	next := int64(0)
	for _, k := range slots {
		rank := 0
		for _, e := range ix.at(k) {
			i := pos[e] - 1
			if i < 0 {
				continue
			}
			// Groups of one key get consecutive IDs as the walk reaches them.
			vk := next + int64(rank/groupSize)
			if ix.slots[e][0] == k {
				virtual[i][0] = vk
			} else {
				virtual[i][1] = vk
			}
			rank++
		}
		next += int64((rank + groupSize - 1) / groupSize)
	}
	return virtual
}
