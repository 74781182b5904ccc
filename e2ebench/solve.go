package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/core"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/sharded"
)

// span is one local.Engine.Run call seen by spanEngine.
type span struct {
	label string
	dur   time.Duration
	stats local.Stats
}

// spanEngine wraps an engine and records one in-memory span per Run call,
// labelled with the phase core last announced through local.SetSpanLabel.
// It is the benchmark's tracer: it sees every protocol execution but
// nothing of core's central orchestration between them.
type spanEngine struct {
	inner local.Engine
	label string
	spans []span
}

func (e *spanEngine) Name() string      { return e.inner.Name() }
func (e *spanEngine) SetLabel(l string) { e.label = l }

func (e *spanEngine) Run(t *local.Topology, f local.Factory, o *local.Options) (local.Stats, error) {
	start := time.Now()
	st, err := e.inner.Run(t, f, o)
	e.spans = append(e.spans, span{label: e.label, dur: time.Since(start), stats: st})
	return st, err
}

// tracedSolve is one solve through spanEngine: the instance ColorEdges
// would build, solved by core.SolveGraph with the practical preset.
type tracedSolve struct {
	res   *core.Result
	wall  time.Duration // instance build + SolveGraph, comparable to ColorEdges
	solve time.Duration // the SolveGraph span alone
	spans []span
}

func solveTraced(g *distec.Graph, inner local.Engine) (*tracedSolve, error) {
	eng := &spanEngine{inner: inner}
	start := time.Now()
	in := listcolor.NewUniform(g, 2*g.MaxDegree()-1)
	s0 := time.Now()
	res, err := core.SolveGraph(in, core.Practical(), eng)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	return &tracedSolve{res: res, wall: end.Sub(start), solve: end.Sub(s0), spans: eng.spans}, nil
}

// solver accumulates the solve phase over the rounds of a run.
type solver struct {
	cfg     config
	g       *distec.Graph
	shards  int
	seqS    perRound // wall per sequential solve
	shS     perRound // wall per sharded solve
	allocMB []float64
	verifyS []float64
	// traced runs only
	trWall, trShardS []float64
	phase            map[string][]float64 // per traced solve: engine seconds by label, and "self"
	ref              *distec.Result
	last             *tracedSolve
}

var phaseLabels = []string{"linial", "defective", "chain", "base"}

// round solves the workload graph for budget, at least once: sequential,
// then sharded at one shard per core, and under --trace 1 both again
// through spanEngine. Every output is verified and the engines must agree
// bit for bit.
func (s *solver) round(round int, budget time.Duration, t *tally) error {
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		// Each timed solve starts on a collected heap, so that it does not
		// pay for the previous solve's garbage at a varying point.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := distec.ColorEdges(s.g, distec.Options{})
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("sequential solve: %w", err)
		}
		s.seqS.add(round, sec(d))
		s.allocMB = append(s.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		t0 = time.Now()
		err = distec.Verify(s.g, res.Colors)
		s.verifyS = append(s.verifyS, sec(time.Since(t0)))
		if s.ref == nil {
			s.ref = res
		}
		if err == nil && (!slices.Equal(s.ref.Colors, res.Colors) || s.ref.Rounds != res.Rounds) {
			err = errors.New("sequential solve differs from the first")
		}
		t.add(err)

		runtime.GC()
		t0 = time.Now()
		sh, err := distec.ColorEdges(s.g, distec.Options{Engine: distec.Sharded, Shards: s.shards})
		s.shS.add(round, sec(time.Since(t0)))
		if err == nil && (!slices.Equal(s.ref.Colors, sh.Colors) || s.ref.Rounds != sh.Rounds) {
			err = errors.New("sharded solve differs from sequential")
		}
		t.add(err)

		if s.cfg.trace {
			if err := s.traced(t); err != nil {
				return err
			}
		}
	}
	// A solve leaves hundreds of MB of garbage (2 GB allocated per solve at
	// Δ = 64). Collect it and return it to the OS now, so the collector and
	// the scavenger do not compete with the daemon in the serve window.
	debug.FreeOSMemory()
	return nil
}

// traced solves once more on each engine through spanEngine.
func (s *solver) traced(t *tally) error {
	tr, err := solveTraced(s.g, local.Sequential)
	if err != nil {
		return fmt.Errorf("traced solve: %w", err)
	}
	t.add(sameAsUntraced(tr, s.ref))
	s.trWall = append(s.trWall, sec(tr.wall))
	byLabel := map[string]time.Duration{}
	var inSpans time.Duration
	for _, sp := range tr.spans {
		byLabel[sp.label] += sp.dur
		inSpans += sp.dur
	}
	for _, l := range phaseLabels {
		s.phase[l] = append(s.phase[l], sec(byLabel[l]))
	}
	s.phase["self"] = append(s.phase["self"], sec(tr.solve-inSpans))
	s.last = tr

	trs, err := solveTraced(s.g, sharded.New(sharded.Config{Shards: s.shards}))
	if err != nil {
		return fmt.Errorf("traced sharded solve: %w", err)
	}
	t.add(sameAsUntraced(trs, s.ref))
	var busy time.Duration
	for _, sp := range trs.spans {
		busy += sp.dur
	}
	s.trShardS = append(s.trShardS, sec(busy))
	return nil
}

// report sets the solve metrics.
func (s *solver) report(vals map[string]float64) {
	fmt.Fprintf(os.Stderr, "e2ebench: solves seq %.3f sharded %.3f\n", s.seqS.all(), s.shS.all())
	vals["solve_s"] = s.seqS.q(0.5)
	vals["solve_sharded_s"] = s.shS.q(0.5)
	vals["solve_alloc_mb"] = median(s.allocMB)
	vals["solve_rounds"] = float64(s.ref.Rounds)
	vals["verify.s"] = median(s.verifyS)
	vals["sharded.speedup"] = vals["solve_s"] / vals["solve_sharded_s"]
	if s.last == nil {
		return
	}
	vals["trace.overhead"] = median(s.trWall)/median(s.seqS.all()) - 1
	vals["sharded.s"] = median(s.trShardS)
	vals["core.self_s"] = median(s.phase["self"])
	for _, l := range phaseLabels {
		vals[l+".s"] = median(s.phase[l])
	}
	var runs, rounds, msgs, linialMsgs, defRounds, baseRuns float64
	for _, sp := range s.last.spans {
		runs++
		rounds += float64(sp.stats.Rounds)
		msgs += float64(sp.stats.Messages)
		switch sp.label {
		case "linial":
			linialMsgs += float64(sp.stats.Messages)
		case "defective":
			defRounds += float64(sp.stats.Rounds)
		case "base":
			baseRuns++
		}
	}
	vals["local.runs"] = runs
	vals["local.messages"] = msgs
	vals["local.rounds_run"] = rounds
	vals["local.round_coverage"] = rounds / float64(s.ref.Rounds)
	vals["linial.messages"] = linialMsgs
	vals["defective.rounds"] = defRounds
	vals["base.runs"] = baseRuns
	vals["core.class_instances"] = float64(s.last.res.Trace.ClassInstances)
	vals["core.chain_levels"] = float64(s.last.res.Trace.ChainLevels)
	vals["core.deferred"] = float64(s.last.res.Trace.Deferred)
}

// sameAsUntraced checks that a traced solve reproduced the untraced one:
// colors bit for bit, charged rounds and core's instrumentation counts.
func sameAsUntraced(tr *tracedSolve, ref *distec.Result) error {
	if !slices.Equal(tr.res.Colors, ref.Colors) || tr.res.Stats.Rounds != ref.Rounds {
		return fmt.Errorf("traced solve differs from untraced (rounds %d vs %d)", tr.res.Stats.Rounds, ref.Rounds)
	}
	d := ref.Diagnostics
	if tr.res.Trace.ClassInstances != d.ClassInstances || tr.res.Trace.ChainLevels != d.ChainLevels || tr.res.Trace.Deferred != d.Deferred {
		return fmt.Errorf("traced solve counts differ from untraced diagnostics")
	}
	return nil
}
