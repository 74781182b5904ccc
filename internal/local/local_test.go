package local

import (
	"errors"
	"strings"
	"testing"

	"github.com/distec/distec/internal/graph"
)

// floodMax is a test protocol: every entity broadcasts the largest entity
// index it has seen for a fixed number of rounds, then halts. On a connected
// topology with rounds ≥ diameter every entity learns the global maximum.
type floodMax struct {
	v      View
	rounds int
	best   int
	out    []int // result sink, indexed by entity (each writes only its own)
}

func (f *floodMax) Send(r int) []Message {
	msgs := make([]Message, f.v.Degree)
	for p := range msgs {
		msgs[p] = f.best
	}
	return msgs
}

func (f *floodMax) Receive(r int, inbox []Message) bool {
	for _, m := range inbox {
		if m == nil {
			continue
		}
		if x := m.(int); x > f.best {
			f.best = x
		}
	}
	if r >= f.rounds {
		f.out[f.v.Index] = f.best
		return true
	}
	return false
}

func floodFactory(rounds int, out []int) Factory {
	return func(v View) Protocol {
		return &floodMax{v: v, rounds: rounds, best: v.Index, out: out}
	}
}

func TestTopologyFromGraphValid(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(10), graph.Star(8), graph.Complete(6),
		graph.Grid(4, 5), graph.RandomRegular(30, 4, 1), graph.Path(2),
	} {
		tp := FromGraph(g)
		if err := tp.Validate(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if tp.N() != g.N() {
			t.Fatalf("entity count %d != n %d", tp.N(), g.N())
		}
		if tp.MaxDeg != g.MaxDegree() {
			t.Fatalf("MaxDeg %d != Δ %d", tp.MaxDeg, g.MaxDegree())
		}
	}
}

func TestEdgeConflictValid(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(9), graph.Star(8), graph.Complete(6),
		graph.Grid(3, 4), graph.RandomRegular(24, 5, 2), graph.Path(3),
	} {
		tp := EdgeConflict(g)
		if err := tp.Validate(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if tp.N() != g.M() {
			t.Fatalf("entity count %d != m %d", tp.N(), g.M())
		}
		if tp.MaxDeg != g.MaxEdgeDegree() {
			t.Fatalf("MaxDeg %d != Δ̄ %d", tp.MaxDeg, g.MaxEdgeDegree())
		}
		for e := 0; e < tp.N(); e++ {
			me := tp.Meta[e].(*EdgeMeta)
			if tp.Degree(e) != me.EdgeDegree() {
				t.Fatalf("edge %d: %d ports, EdgeDegree %d", e, tp.Degree(e), me.EdgeDegree())
			}
		}
	}
}

// TestEdgeMetaPortStructure verifies that the port layout documented on
// EdgeMeta matches the actual links: the neighbor on port p shares exactly
// the endpoint SharedEndpoint(p) and sits at incidence position
// NeighborPos(p) of that endpoint.
func TestEdgeMetaPortStructure(t *testing.T) {
	g := graph.RandomRegular(20, 4, 7)
	tp := EdgeConflict(g)
	for e := 0; e < tp.N(); e++ {
		me := tp.Meta[e].(*EdgeMeta)
		for p, fj := range tp.Ports[e] {
			f := graph.EdgeID(fj)
			s := int(me.SharedKey(p))
			fu, fv := g.Endpoints(f)
			if fu != s && fv != s {
				t.Fatalf("edge %d port %d: neighbor %d does not touch shared endpoint %d", e, p, f, s)
			}
			want := me.NeighborPos(p)
			found := -1
			for pos, id := range g.Incident(s) {
				if id == f {
					found = pos
				}
			}
			if found != want {
				t.Fatalf("edge %d port %d: NeighborPos=%d, actual position %d", e, p, want, found)
			}
		}
	}
}

// shardCounts is the shard matrix the executor tests sweep: one shard (the
// sequential engine), two, and one more than the entity count, which
// clamps to one shard per entity so every message crosses shards.
func shardCounts(n int) []int { return []int{1, 2, n + 1} }

// runShards drives an Exec on the given shard count to completion, fanning
// each phase out on fresh goroutines — what the sharded engine does.
func runShards(tp *Topology, f Factory, opts *Options, shards int) (Stats, error) {
	x := Prepare(tp, f, opts, shards, GoExecutor)
	for !x.Round() {
	}
	return x.Stats()
}

// laneExecutor runs tasks on a fixed pool of worker goroutines, the shape
// internal/serve feeds an Exec from.
type laneExecutor struct{ tasks chan func() }

func newLaneExecutor(workers int) *laneExecutor {
	e := &laneExecutor{tasks: make(chan func(), 64)}
	for i := 0; i < workers; i++ {
		go func() {
			for t := range e.tasks {
				t()
			}
		}()
	}
	return e
}

func (e *laneExecutor) Execute(task func()) { e.tasks <- task }
func (e *laneExecutor) Close()              { close(e.tasks) }

// TestFloodMaxBothEngines floods on several topologies and demands
// bit-identical results and stats from RunSequential and from an Exec at
// every shard count, run inline, on fresh goroutines, and on a shared lane
// pool.
func TestFloodMaxBothEngines(t *testing.T) {
	lanes := newLaneExecutor(3)
	defer lanes.Close()
	execs := map[string]Executor{"inline": nil, "go": GoExecutor, "lanes": lanes}
	for _, g := range []*graph.Graph{
		graph.Cycle(30), graph.Star(17), graph.Complete(12), graph.RandomRegular(48, 4, 3), graph.Path(2),
	} {
		for _, tp := range []*Topology{FromGraph(g), EdgeConflict(g)} {
			rounds := 40 // ≥ diameter
			want := make([]int, tp.N())
			wantStats, err := RunSequential(tp, floodFactory(rounds, want), nil)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			if wantStats.Rounds != rounds {
				t.Fatalf("rounds = %d, want %d", wantStats.Rounds, rounds)
			}
			for i := range want {
				if want[i] != tp.N()-1 {
					t.Fatalf("entity %d learned max %d, want %d", i, want[i], tp.N()-1)
				}
			}
			for name, exec := range execs {
				for _, shards := range shardCounts(tp.N()) {
					got := make([]int, tp.N())
					x := Prepare(tp, floodFactory(rounds, got), nil, shards, exec)
					for !x.Round() {
					}
					gotStats, err := x.Stats()
					if err != nil {
						t.Fatalf("%s shards=%d: %v", name, shards, err)
					}
					if gotStats != wantStats {
						t.Fatalf("%s shards=%d: stats %+v, want %+v", name, shards, gotStats, wantStats)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s shards=%d entity %d: got %d, want %d", name, shards, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// portEcho verifies the Back-pointer wiring: each entity sends its own index
// on every port and checks that what it receives on port p is exactly the
// index of the neighbor that port p points to.
type portEcho struct {
	v        View
	expected []int32
	t        *testing.T
}

func (pe *portEcho) Send(r int) []Message {
	msgs := make([]Message, pe.v.Degree)
	for p := range msgs {
		msgs[p] = pe.v.Index
	}
	return msgs
}

func (pe *portEcho) Receive(r int, inbox []Message) bool {
	for p, m := range inbox {
		if m == nil {
			pe.t.Errorf("entity %d port %d: no message", pe.v.Index, p)
			continue
		}
		if got := m.(int); got != int(pe.expected[p]) {
			pe.t.Errorf("entity %d port %d: got %d, want %d", pe.v.Index, p, got, pe.expected[p])
		}
	}
	return true
}

func TestPortWiring(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(6), graph.Complete(5), graph.Grid(3, 3)} {
		for _, tp := range []*Topology{FromGraph(g), EdgeConflict(g)} {
			f := func(v View) Protocol {
				return &portEcho{v: v, expected: tp.Ports[v.Index], t: t}
			}
			for _, shards := range shardCounts(tp.N()) {
				if _, err := runShards(tp, f, nil, shards); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
			}
		}
	}
}

// neverHalt exercises the round limit.
type neverHalt struct{ v View }

func (nh *neverHalt) Send(r int) []Message        { return nil }
func (nh *neverHalt) Receive(int, []Message) bool { return false }
func neverFactory(v View) Protocol                { return &neverHalt{v: v} }

// TestRoundLimit: both ways a run is cut short are decided at the start of
// a round — the round cap and the Interrupt hook — so at every shard count
// the run stops with exactly the rounds before it, and a finished Exec
// stays finished.
func TestRoundLimit(t *testing.T) {
	boom := errors.New("deadline")
	tp := FromGraph(graph.Cycle(6))
	for _, shards := range shardCounts(tp.N()) {
		polls := 0
		cases := []struct {
			name   string
			opts   *Options
			err    error
			rounds int
		}{
			{"limit", &Options{MaxRounds: 10}, ErrRoundLimit, 10},
			{"interrupt", &Options{Interrupt: func() error {
				if polls++; polls > 3 {
					return boom
				}
				return nil
			}}, boom, 3},
		}
		for _, tc := range cases {
			x := Prepare(tp, neverFactory, tc.opts, shards, GoExecutor)
			for !x.Round() {
			}
			stats, err := x.Stats()
			if !errors.Is(err, tc.err) || stats.Rounds != tc.rounds {
				t.Fatalf("%s shards=%d: stats %+v, err %v; want %d rounds then %v", tc.name, shards, stats, err, tc.rounds, tc.err)
			}
			if !x.Round() || !x.Done() {
				t.Fatalf("%s shards=%d: finished Exec must stay finished", tc.name, shards)
			}
		}
	}
}

// staggeredHalt halts entity i after i+1 rounds, exercising the executor's
// handling of messages arriving at already-halted entities.
type staggeredHalt struct{ v View }

func (s *staggeredHalt) Send(r int) []Message {
	msgs := make([]Message, s.v.Degree)
	for p := range msgs {
		msgs[p] = r
	}
	return msgs
}

func (s *staggeredHalt) Receive(r int, inbox []Message) bool {
	return r > s.v.Index
}

func TestStaggeredHalting(t *testing.T) {
	tp := FromGraph(graph.Complete(8))
	f := func(v View) Protocol { return &staggeredHalt{v: v} }
	want, err := RunSequential(tp, f, nil)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if want.Rounds != 8 {
		t.Fatalf("rounds = %d, want 8 (last entity halts after round 8)", want.Rounds)
	}
	for _, shards := range shardCounts(tp.N()) {
		got, err := runShards(tp, f, nil, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got != want {
			t.Fatalf("shards=%d: stats %+v, want %+v", shards, got, want)
		}
	}
}

func TestEmptyTopology(t *testing.T) {
	tp := EdgeConflict(graph.New(5)) // nodes, no edges
	for _, shards := range shardCounts(tp.N()) {
		x := Prepare(tp, neverFactory, &Options{MaxRounds: 1}, shards, GoExecutor)
		if !x.Done() || len(x.workers) != 0 {
			t.Fatalf("shards=%d: empty topology should be done at once with no shards", shards)
		}
		if stats, err := x.Stats(); err != nil || stats != (Stats{}) {
			t.Fatalf("shards=%d: stats = %+v, %v; want zero, nil", shards, stats, err)
		}
	}
}

// TestSendLengthMismatchRejected: a wrong-length outbox is an error, and
// the error names the lowest offending entity whatever the interleaving of
// the shards.
func TestSendLengthMismatchRejected(t *testing.T) {
	tp := FromGraph(graph.Complete(8))
	bad := func(v View) Protocol { return badSender{} }
	for _, shards := range shardCounts(tp.N()) {
		_, err := runShards(tp, bad, nil, shards)
		if err == nil {
			t.Fatalf("shards=%d: accepted wrong outbox length", shards)
		}
		if !strings.Contains(err.Error(), "entity 0 ") {
			t.Fatalf("shards=%d: error %q does not blame the lowest entity", shards, err)
		}
	}
}

type badSender struct{}

func (badSender) Send(r int) []Message        { return make([]Message, 1) }
func (badSender) Receive(int, []Message) bool { return false }
