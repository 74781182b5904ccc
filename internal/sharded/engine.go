// Package sharded is the parallel engine for LOCAL protocols: it drives a
// multi-shard local.Exec, one contiguous shard of entities per core by
// default, with each round's phase work fanned out across goroutines. Same-
// shard messages go straight into their inboxes; cross-shard messages travel
// in double-buffered per-shard batches handed over at phase boundaries, and
// all per-round buffers are reused, keeping the hot path allocation-free.
//
// Compared to the sequential engine (a one-shard Exec), rounds run in
// parallel across shards at the cost of two barriers per round. Error-free
// runs are bit-identical to local.RunSequential for every protocol in the
// repository: the round executor is the same, and its results do not depend
// on the shard count.
package sharded

import (
	"fmt"

	"github.com/distec/distec/internal/local"
)

// Config tunes the engine.
type Config struct {
	// Shards is the worker count; ≤0 selects runtime.GOMAXPROCS(0) (one
	// shard per core). The effective count never exceeds the entity count.
	Shards int
}

// Engine is the sharded execution engine. The zero value is valid and uses
// one shard per core. Engines are stateless between runs and safe for
// concurrent use.
type Engine struct {
	cfg Config
}

// New returns a sharded engine with the given configuration.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// Default is the sharded engine with one shard per core.
var Default local.Engine = New(Config{})

// Name implements local.Engine.
func (e *Engine) Name() string {
	if e.cfg.Shards > 0 {
		return fmt.Sprintf("sharded-%d", e.cfg.Shards)
	}
	return "sharded"
}

// Run implements local.Engine. It prepares an Exec over the configured
// shard count, constructing and running every phase of every shard on its
// own goroutine; error-free runs return stats bit-identical to
// local.RunSequential.
func (e *Engine) Run(t *local.Topology, f local.Factory, opts *local.Options) (local.Stats, error) {
	x := local.Prepare(t, f, opts, e.cfg.Shards, local.GoExecutor)
	for !x.Round() {
	}
	return x.Stats()
}
