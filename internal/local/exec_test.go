package local

import (
	"errors"
	"testing"
	"time"

	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/trace"
)

// TestRoundsBudget drives an Exec in microscopic time slices and demands
// bit-identical results and stats to the one-call RunSequential — the
// property the serving layer's single-lane slicing relies on.
func TestRoundsBudget(t *testing.T) {
	tp := EdgeConflict(graph.Cycle(40))
	want := make([]int, tp.N())
	wantStats, err := RunSequential(tp, floodFactory(50, want), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardCounts(tp.N()) {
		got := make([]int, tp.N())
		x := Prepare(tp, floodFactory(50, got), nil, shards, nil)
		slices := 0
		for !x.Rounds(time.Microsecond) {
			slices++
			if slices > 1000 {
				t.Fatalf("shards=%d: budget slicing does not terminate", shards)
			}
		}
		gotStats, err := x.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Fatalf("shards=%d: stats %+v, want %+v", shards, gotStats, wantStats)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d entity %d: %d, want %d", shards, i, got[i], want[i])
			}
		}
		if !x.Rounds(0) || !x.Done() {
			t.Fatalf("shards=%d: finished Exec must stay finished", shards)
		}
	}
}

// chatter sends the same preallocated outbox every round and never halts,
// so any allocation during a round is the executor's own.
type chatter struct{ out []Message }

func (c *chatter) Send(int) []Message          { return c.out }
func (c *chatter) Receive(int, []Message) bool { return false }

// TestRoundAllocs: once the reused buffers have grown (two rounds, one per
// parity), a round allocates nothing, in one shard and across two. Phases
// run inline: fanning them out to goroutines is the executor's cost, not
// the round's.
func TestRoundAllocs(t *testing.T) {
	tp := FromGraph(graph.Cycle(64))
	f := func(v View) Protocol {
		out := make([]Message, v.Degree)
		for p := range out {
			out[p] = v.Index
		}
		return &chatter{out: out}
	}
	for _, shards := range []int{1, 2} {
		x := Prepare(tp, f, nil, shards, nil)
		if len(x.workers) != shards {
			t.Fatalf("shards = %d, want %d", len(x.workers), shards)
		}
		x.Round()
		x.Round()
		if allocs := testing.AllocsPerRun(100, func() { x.Round() }); allocs != 0 {
			t.Fatalf("shards=%d: %v allocations per round, want 0", shards, allocs)
		}
	}
}

// TestTracedRounds: a traced execution reports one event per round, named
// after its shard count; multi-shard rounds carry every shard's busy time.
func TestTracedRounds(t *testing.T) {
	tp := EdgeConflict(graph.RandomRegular(20, 4, 3))
	for _, shards := range []int{1, 3} {
		tr := trace.New()
		stats, err := runShards(tp, floodFactory(6, make([]int, tp.N())), &Options{Trace: tr}, shards)
		if err != nil {
			t.Fatal(err)
		}
		spans := tr.Spans()
		if len(spans) != 1 || len(spans[0].Rounds) != stats.Rounds {
			t.Fatalf("shards=%d: %d spans, want one with %d rounds", shards, len(spans), stats.Rounds)
		}
		name, busy := "sequential", 0
		if shards > 1 {
			name, busy = "sharded-3", shards
		}
		if spans[0].Engine != name {
			t.Fatalf("shards=%d: span engine %q, want %q", shards, spans[0].Engine, name)
		}
		var msgs int64
		for _, ev := range spans[0].Rounds {
			msgs += ev.Messages
			if len(ev.ShardBusy) != busy {
				t.Fatalf("shards=%d round %d: %d shard busy times, want %d", shards, ev.Round, len(ev.ShardBusy), busy)
			}
		}
		if msgs != stats.Messages {
			t.Fatalf("shards=%d: events sum to %d messages, stats say %d", shards, msgs, stats.Messages)
		}
	}
}

// panicky panics in entity 3's second Receive.
type panicky struct{ v View }

func (p *panicky) Send(int) []Message { return nil }
func (p *panicky) Receive(r int, _ []Message) bool {
	if p.v.Index == 3 && r == 2 {
		panic("boom")
	}
	return false
}

// TestTaskPanicIsError: a panic on a fanned-out phase task must not unwind
// the executor's goroutine; it becomes the execution's error.
func TestTaskPanicIsError(t *testing.T) {
	tp := FromGraph(graph.Cycle(8))
	stats, err := runShards(tp, func(v View) Protocol { return &panicky{v: v} }, nil, 2)
	if !errors.Is(err, ErrPanic) || stats.Rounds != 2 {
		t.Fatalf("stats %+v, err %v; want ErrPanic in round 2", stats, err)
	}
}

// TestSeqExecInterruptAndLimit: the one-shard inline Exec that
// RunSequential drives stops on the Interrupt hook and on the round cap
// with exactly the rounds completed before it.
func TestSeqExecInterruptAndLimit(t *testing.T) {
	boom := errors.New("deadline")
	polls := 0
	opts := &Options{Interrupt: func() error {
		polls++
		if polls > 3 {
			return boom
		}
		return nil
	}}
	x := Prepare(FromGraph(graph.Cycle(6)), neverFactory, opts, 1, nil)
	for !x.Round() {
	}
	if stats, err := x.Stats(); !errors.Is(err, boom) || stats.Rounds != 3 {
		t.Fatalf("stats %+v, err %v; want 3 rounds then interrupt", stats, err)
	}

	x = Prepare(FromGraph(graph.Cycle(6)), neverFactory, &Options{MaxRounds: 7}, 1, nil)
	for !x.Round() {
	}
	if stats, err := x.Stats(); !errors.Is(err, ErrRoundLimit) || stats.Rounds != 7 {
		t.Fatalf("stats %+v, err %v; want 7 rounds then limit", stats, err)
	}
}
