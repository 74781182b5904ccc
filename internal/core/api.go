package core

import (
	"fmt"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/linial"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// SolveGraph runs the full algorithm on a list edge coloring instance over a
// graph (package listcolor). It is the main entry point for the public API
// and the experiments.
func SolveGraph(in *listcolor.Instance, params Params, run local.Engine) (*Result, error) {
	if err := in.Validate(1); err != nil {
		return nil, fmt.Errorf("core: invalid instance: %w", err)
	}
	pairs := graphPairs(in.G)
	return Solve(pairs, in.Active, in.Lists, in.C, params, run)
}

func graphPairs(g *graph.Graph) [][2]int64 {
	pairs := make([][2]int64, g.M())
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(graph.EdgeID(e))
		pairs[e] = [2]int64{int64(u), int64(v)}
	}
	return pairs
}

// SpaceReduceResult is the outcome of a single color space reduction,
// exposed for the Lemma 4.3 experiments (E6, E13).
type SpaceReduceResult struct {
	// Assign maps item index to its subspace in [0, Partition.Q); −1 for
	// inactive or deferred items.
	Assign []int
	// Partition is the palette split that was applied.
	Partition Partition
	// Stats is the LOCAL cost of the assignment (excluding the preparatory
	// Linial pass, reported separately in PrepStats).
	Stats local.Stats
	// PrepStats is the cost of the initial O(Δ̄²) coloring.
	PrepStats local.Stats
	// Trace holds the instrumentation of the reduction, including the
	// worst measured Eq. (2) factor (Eq2Worst) and the level histogram.
	Trace Trace
}

// SpaceReduceOnce applies one list color space reduction (Lemma 4.3) with
// parameter p to an instance whose lists draw from the palette [0, C). It
// is the experiment hook behind E6 (Eq. (2) quality), E11 (virtual split)
// and E13 (phased vs direct ablation).
func SpaceReduceOnce(pairs [][2]int64, active []bool, lists [][]int, c, p int, params Params, run local.Engine) (*SpaceReduceResult, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if run == nil {
		run = local.Sequential
	}
	m := len(pairs)
	s := &Solver{params: params, run: run, trace: &Trace{}}
	orig := compactActive(active)
	in := assignInput{pairs: pairs, lists: lists, size: c, p: p, depth: 0}
	if orig != nil {
		in.pairs, in.lists = gather(pairs, orig), gather(lists, orig)
	}
	in.lo = make([]int, len(in.pairs))
	base, prep, err := s.prepare(in.pairs, orig, m)
	if err != nil {
		return nil, err
	}
	in.base = base
	res, err := s.assignSubspaces(in, newSideIndex(in.pairs))
	if err != nil {
		return nil, err
	}
	return &SpaceReduceResult{
		Assign:    scatter(res.assign, orig, m),
		Partition: res.pt,
		Stats:     res.stats,
		PrepStats: prep,
		Trace:     *s.trace,
	}, nil
}

// prepare computes the global O(Δ̄²) initial coloring (Theorem 4.1's
// O(log* n) preamble) of the compact top-level pair system and returns it,
// indexed like pairs. Item i is item orig[i] of the caller's m items (orig
// nil: the identity); Linial starts from those original indices.
func (s *Solver) prepare(pairs [][2]int64, orig []int32, m int) ([]int, local.Stats, error) {
	t := local.PairConflict(pairs)
	init := make([]int, t.N())
	for i := range init {
		init[i] = i
		if orig != nil {
			init[i] = int(orig[i])
		}
	}
	local.SetSpanLabel(s.run, "linial")
	cols, st, err := linial.Reduce(t, init, m, s.run)
	if err != nil {
		return nil, st, fmt.Errorf("core: initial Linial coloring: %w", err)
	}
	s.baseX = linial.Colors(m, t.MaxDeg)
	return cols, st, nil
}
