package local

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/distec/distec/internal/trace"
)

// Executor schedules tasks onto workers owned by someone else. It is the
// seam that lets one long-lived worker pool (internal/serve) multiplex the
// rounds of many concurrent executions: an Exec fans its per-shard phase
// work out through an Executor instead of owning goroutines.
//
// Execute must run every task exactly once, on any goroutine, and may block
// until a worker is free. Tasks of one phase are independent; the Exec
// provides the barrier between phases itself.
type Executor interface {
	Execute(task func())
}

// goExecutor is the trivial executor: one fresh goroutine per task.
type goExecutor struct{}

func (goExecutor) Execute(task func()) { go task() }

// GoExecutor runs every task on a fresh goroutine.
var GoExecutor Executor = goExecutor{}

// Exec is one in-flight protocol execution whose rounds are driven
// externally: build it with Prepare, call Round (or Rounds) until it
// reports completion, then read Stats. It is the only round loop in the
// repository — RunSequential drives a one-shard Exec, the sharded engine a
// multi-shard one, and the serving layer slices or fans out either — so it
// is the one place that enforces the round cap, polls Options.Interrupt
// and emits trace round events.
//
// The entities are split into contiguous shards, each owned by a worker.
// A round is two phases, each run for every shard: send, then deliver and
// receive. A message to an entity of the sender's own shard is written
// straight into its inbox during the send phase; a message to another
// shard is batched in the sender's outbox and drained by its owner in the
// next phase. With more than one shard and an Executor, the shards of a
// phase run in parallel and the Exec waits for all of them before the next
// phase; between rounds it holds no goroutines, so many Execs can share one
// worker pool, interleaving at round granularity.
//
// Error-free executions are bit-identical at every shard count: identical
// outputs, rounds, and message counts. Receive order within a shard is
// ascending entity order and inboxes are port-indexed, so delivery order is
// immaterial. On a protocol error each shard stops sending at its own first
// bad entity, so the partial message count returned with the error depends
// on the shard count.
//
// The driving goroutine must not call Round concurrently with itself; the
// parallelism is inside a round, across shards.
type Exec struct {
	t       *Topology
	opts    *Options
	exec    Executor
	limit   int
	workers []*worker
	shardOf []int32
	par     int
	r       int
	done    bool
	stats   Stats
	err     error
	// errs[s] is the error shard s's task reported in the phase just run
	// (nil if none); only that task writes it, and the driver reads it
	// after the phase barrier.
	errs []error

	// span is the trace span of this execution (nil when tracing is off;
	// every use is behind a nil test, the whole disabled cost). prevSent
	// tracks the workers' cumulative send counters between rounds. Only
	// the driving goroutine touches either.
	span     *trace.Span
	prevSent int64

	// sendTask and recvTask are the per-shard phase bodies, bound once at
	// Prepare: they read the round number and parity from the struct, so
	// Round fans them out without allocating a closure per round. The
	// driver writes x.r/x.par strictly before each fan-out and the
	// barrier in each orders those writes against the tasks.
	sendTask func(s int)
	recvTask func(s int)
}

// Prepare partitions the topology into at most shards blocks of near-equal
// Σ(degree+1) — ≤0 selects one per core, and the count is clamped to the
// entity count — and constructs the per-entity protocol state, fanning
// construction out through exec (nil runs everything inline on the
// driving goroutine, for this step and every Round). The returned Exec has
// executed zero rounds.
func Prepare(t *Topology, f Factory, opts *Options, shards int, exec Executor) *Exec {
	n := t.N()
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	bounds := []int{0, n}
	if shards > 1 {
		weights := make([]int, n)
		for i := range weights {
			weights[i] = len(t.Ports[i]) + 1
		}
		bounds = Partition(weights, shards)
	}
	shards = len(bounds) - 1
	x := &Exec{t: t, opts: opts, exec: exec, limit: opts.RoundLimit()}
	if tr := opts.Tracer(); tr != nil {
		name := "sequential"
		if shards > 1 {
			name = fmt.Sprintf("sharded-%d", shards)
		}
		x.span = tr.StartSpan(name, n)
	}
	if n == 0 {
		x.finish()
		return x
	}
	if shards > 1 {
		x.shardOf = shardMap(bounds, n)
	}
	x.workers = make([]*worker, shards)
	x.errs = make([]error, shards)
	x.each(func(s int) {
		x.workers[s] = newWorker(s, bounds[s], bounds[s+1], shards, t, f)
	})
	if x.err = x.shardErr(); x.err != nil {
		// A factory panicked on a fanned-out task: some shard has no worker.
		x.workers = nil
		x.finish()
		return x
	}
	x.sendTask = func(s int) {
		w := x.workers[s]
		var start time.Time
		if x.span != nil {
			start = time.Now()
		}
		x.errs[s] = w.sendPhase(x.r, x.par, x.t, x.shardOf)
		if x.span != nil {
			w.rBusy = time.Since(start)
		}
	}
	x.recvTask = func(s int) {
		w := x.workers[s]
		var start time.Time
		if x.span != nil {
			start = time.Now()
		}
		w.deliverPhase(x.par, x.workers)
		w.receivePhase(x.r, x.par)
		if x.span != nil {
			w.rBusy += time.Since(start)
		}
	}
	return x
}

// Done reports whether the execution has finished (successfully or not).
func (x *Exec) Done() bool { return x.done }

// Stats returns the execution cost so far and the first error. It may be
// called between rounds (not concurrently with one); the result is final
// once Done reports true.
func (x *Exec) Stats() (Stats, error) {
	s := x.stats
	if !x.done {
		for _, w := range x.workers {
			s.Messages += w.sent
		}
	}
	return s, x.err
}

// shardErr returns the first error a shard reported in the phase just run.
// Shards are ascending blocks of entities and each stops at its own first
// bad entity, so this is the error of the lowest offending entity, however
// the shards interleaved.
func (x *Exec) shardErr() error {
	for _, err := range x.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// each runs f for every shard and waits for all of them: through the
// executor when there is one and more than one shard exists, inline
// otherwise. The WaitGroup is the inter-phase barrier; its Done/Wait edges
// order every write of one phase before every read of the next.
//
// A panic on a fanned-out task is recorded as its shard's error rather than
// unwinding the executor's worker goroutine (which, on a shared pool, would
// kill every tenant), and the execution halts. Inline execution lets panics
// propagate to the caller, who owns the goroutine.
func (x *Exec) each(f func(s int)) {
	if x.exec == nil || len(x.workers) <= 1 {
		for s := range x.workers {
			f(s)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(x.workers))
	for s := range x.workers {
		x.exec.Execute(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					x.errs[s] = fmt.Errorf("%w: shard %d: %v", ErrPanic, s, r)
				}
			}()
			f(s)
		})
	}
	wg.Wait()
}

// Round executes one synchronous round — the round-cap and interrupt
// checks, the send phase, the deliver and receive phase, the halt decision
// — and returns true once the execution has finished; further calls are
// no-ops.
//
//distec:hotpath
func (x *Exec) Round() bool {
	if x.done {
		return true
	}
	r := x.r + 1
	x.r = r
	if r > x.limit {
		x.err = fmt.Errorf("%w (limit %d)", ErrRoundLimit, x.limit)
		return x.finish()
	}
	if x.err = x.opts.Interrupted(); x.err != nil {
		return x.finish()
	}
	var start time.Time
	if x.span != nil {
		start = time.Now()
	}
	x.stats.Rounds = r
	x.each(x.sendTask)
	if x.err = x.shardErr(); x.err == nil {
		x.each(x.recvTask)
		x.err = x.shardErr()
	}
	if x.err != nil {
		return x.finish()
	}
	active := 0
	for _, w := range x.workers {
		active += len(w.active)
	}
	if x.span != nil {
		x.span.Round(x.roundEvent(r, time.Since(start), active))
	}
	if active == 0 {
		return x.finish()
	}
	x.par = 1 - x.par
	return false
}

// roundEvent rolls the workers' per-round counters into one trace event.
// Multi-shard rounds also report each shard's busy time, whose skew is the
// partitioner's imbalance.
func (x *Exec) roundEvent(r int, d time.Duration, active int) trace.RoundEvent {
	ev := trace.RoundEvent{Round: r, Duration: d, Active: active}
	var sent int64
	for _, w := range x.workers {
		sent += w.sent
		ev.Received += w.rReceived
		ev.Halted += w.rHalted
	}
	ev.Messages, x.prevSent = sent-x.prevSent, sent
	if len(x.workers) > 1 {
		ev.ShardBusy = make([]time.Duration, len(x.workers))
		for s, w := range x.workers {
			ev.ShardBusy[s] = w.rBusy
		}
	}
	return ev
}

// Rounds executes rounds until the execution finishes or the time budget
// elapses, whichever is first, and reports whether it finished. At least
// one round is executed per call. A budget ≤0 means "until finished".
func (x *Exec) Rounds(budget time.Duration) bool {
	if x.done {
		return true
	}
	var until time.Time
	if budget > 0 {
		until = time.Now().Add(budget)
	}
	for {
		if x.Round() {
			return true
		}
		if budget > 0 && !time.Now().Before(until) {
			return false
		}
	}
}

// finish seals the execution: message totals are aggregated once, so Stats
// stays O(shards), and the trace span is closed. It always returns true so
// Round's exits can tail-call it.
func (x *Exec) finish() bool {
	x.done = true
	for _, w := range x.workers {
		x.stats.Messages += w.sent
	}
	x.span.End(x.err)
	return true
}
