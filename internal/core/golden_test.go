package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// The golden pins hash everything a solve reports — colors or subspace
// assignments, LOCAL stats and every Trace field — into one FNV-64a value.
// The determinism tests compare runs within one build; these compare
// against values recorded once, so a refactor of the solver's internals
// that moves any color, round, message or counter fails here.

type goldenHash struct{ h hash.Hash64 }

func newGoldenHash() *goldenHash { return &goldenHash{h: fnv.New64a()} }

func (g *goldenHash) int(x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	g.h.Write(b[:])
}

func (g *goldenHash) ints(xs []int) {
	g.int(int64(len(xs)))
	for _, x := range xs {
		g.int(int64(x))
	}
}

func (g *goldenHash) stats(s local.Stats) {
	g.int(int64(s.Rounds))
	g.int(s.Messages)
}

func (g *goldenHash) trace(tr Trace) {
	for _, x := range []int{
		tr.OuterSweeps, tr.DefectiveCalls, tr.ClassInstances, tr.ChainLevels,
		tr.PhaseInstances, tr.E2Instances, tr.DirectAssigns, tr.VirtualRecursion,
		tr.Deferred, tr.BetaBailouts, tr.DeepestRecursion,
	} {
		g.int(int64(x))
	}
	g.int(int64(math.Float64bits(tr.Eq2Worst)))
	g.ints(tr.LevelHistogram[:])
	g.ints(tr.SweepDegrees)
}

func fullPalette(c int) []int {
	palette := make([]int, c)
	for i := range palette {
		palette[i] = i
	}
	return palette
}

// withPBeta fixes the reduction parameter p and the slack β.
func withPBeta(params Params, p, beta int) Params {
	params.P = func(_, _ int) int { return p }
	params.Beta = func(_, _ int) int { return beta }
	return params
}

func TestGoldenSolve(t *testing.T) {
	cases := []struct {
		name   string
		in     func(t *testing.T) *listcolor.Instance
		params Params
		want   uint64
	}{
		{"practical-rr1500-8", func(t *testing.T) *listcolor.Instance {
			g := graph.RandomRegular(1500, 8, 1)
			return listcolor.NewUniform(g, 2*g.MaxDegree()-1)
		}, Practical(), 0xcc685d671bd65f42},
		{"practical-rr200-48", func(t *testing.T) *listcolor.Instance {
			g := graph.RandomRegular(200, 48, 1)
			return listcolor.NewUniform(g, 2*g.MaxDegree()-1)
		}, Practical(), 0xae41806b1c2fce77},
		{"partial-degree-lists", func(t *testing.T) *listcolor.Instance {
			g := graph.RandomRegular(300, 16, 3)
			in, err := listcolor.NewDegreeLists(g, 2*g.MaxEdgeDegree(), 5)
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < g.M(); e += 3 {
				in.Active[e] = false
			}
			return in
		}, Practical(), 0x5cf94a675ce3bc67},
		{"theory-rr400-8", func(t *testing.T) *listcolor.Instance {
			g := graph.RandomRegular(400, 8, 7)
			return listcolor.NewUniform(g, 2*g.MaxDegree()-1)
		}, Theory(1, 1), 0xaf32a1c238151bfa},
		// Large p reaches the E(2) assignment inside the class chains.
		{"e2-rr120-24", func(t *testing.T) *listcolor.Instance {
			return listcolor.NewUniform(graph.RandomRegular(120, 24, 1), 1024)
		}, withPBeta(Practical(), 16, 2), 0x7ab4e926799990ed},
		// β = 1 with a tight palette defers items back to a second sweep.
		{"deferrals-rr200-48", func(t *testing.T) *listcolor.Instance {
			return listcolor.NewUniform(graph.RandomRegular(200, 48, 1), 95)
		}, withPBeta(Practical(), 16, 1), 0xd9a8de3cda441ceb},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in(t)
			res, err := SolveGraph(in, tc.params, local.Sequential)
			if err != nil {
				t.Fatalf("SolveGraph: %v", err)
			}
			h := newGoldenHash()
			h.ints(res.Colors)
			h.stats(res.Stats)
			h.trace(res.Trace)
			if got := h.h.Sum64(); got != tc.want {
				t.Fatalf("golden hash %#016x, pinned %#016x (rounds %d, messages %d, trace %+v)",
					got, tc.want, res.Stats.Rounds, res.Stats.Messages, res.Trace)
			}
		})
	}
}

func TestGoldenSpaceReduceOnce(t *testing.T) {
	g := graph.RandomRegular(96, 40, 7)
	pairs := graphPairsOf(g)
	c := 512
	lists := make([][]int, g.M())
	for e := range lists {
		lists[e] = fullPalette(c)
	}
	partial := make([]bool, g.M())
	for e := range partial {
		partial[e] = e%4 != 0
	}
	sparse := graph.RandomRegular(64, 4, 3)
	cases := []struct {
		name   string
		pairs  [][2]int64
		active []bool
		direct bool
		want   uint64
	}{
		// Phases with a virtual-graph recursion into Lemma 4.2.
		{"phased", pairs, nil, false, 0x7ca158f16e8220c5},
		{"direct", pairs, nil, true, 0x867f050e8504c74f},
		{"phased-partial", pairs, partial, false, 0x00ba81974c1bd8e6},
		// Degrees below 2^ℓ: the E(2) assignment.
		{"e2", graphPairsOf(sparse), nil, false, 0xa28a159e37260998},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := Practical()
			params.DirectAssignment = tc.direct
			res, err := SpaceReduceOnce(tc.pairs, tc.active, lists[:len(tc.pairs)], c, 32, params, local.Sequential)
			if err != nil {
				t.Fatalf("SpaceReduceOnce: %v", err)
			}
			h := newGoldenHash()
			h.ints(res.Assign)
			h.int(int64(res.Partition.Size))
			h.int(int64(res.Partition.PartSize))
			h.int(int64(res.Partition.Q))
			h.stats(res.Stats)
			h.stats(res.PrepStats)
			h.trace(res.Trace)
			if got := h.h.Sum64(); got != tc.want {
				t.Fatalf("golden hash %#016x, pinned %#016x (stats %+v, trace %+v)",
					got, tc.want, res.Stats, res.Trace)
			}
		})
	}
}
