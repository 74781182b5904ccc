package core

import (
	"runtime"
	"testing"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
)

// TestSolveAllocBudget gates the solver's allocations: one practical
// SolveGraph on RandomRegular(200, 48) (4800 edges, Δ̄ = 94). The solver is
// deterministic, so its allocation count and volume barely move between
// runs (the race detector adds about 0.2 MB). The bounds are the measured
// 164,761 allocations and 31.1 MB plus 10%. Before sub-instances were
// compacted to their own items, one solve took 358,074 allocations and
// 389.0 MB.
func TestSolveAllocBudget(t *testing.T) {
	g := graph.RandomRegular(200, 48, 1)
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	solve := func() {
		if _, err := SolveGraph(in, Practical(), local.Sequential); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, solve)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	solve()
	runtime.ReadMemStats(&m1)
	mb := float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.Logf("allocs/solve %.0f, MB/solve %.2f", allocs, mb)
	const maxAllocs, maxMB = 181_237, 34.2
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per solve, budget %d", allocs, int(maxAllocs))
	}
	if mb > maxMB {
		t.Errorf("%.2f MB allocated per solve, budget %.1f MB", mb, maxMB)
	}
}
