package distec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/distec/distec/internal/dynamic"
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/trace"
)

// ErrPaletteExhausted marks dynamic inserts rejected because the session's
// fixed palette cannot accommodate the new edge: no target-color repair of
// its conflict region succeeded and the Vizing augmentation fallback found
// no free color either (via errors.Is). By Vizing's theorem this is only
// reachable for palettes strictly below Δ+1. The maintained coloring is
// unchanged.
var ErrPaletteExhausted = dynamic.ErrPaletteExhausted

// ErrEdgeInactive marks deletes of an edge that is not active — already
// deleted (a double delete) or never inserted (via errors.Is). The
// maintained coloring is unchanged; in particular a double delete can never
// free a color twice.
var ErrEdgeInactive = dynamic.ErrEdgeInactive

// ErrSessionClosed marks updates against a Dynamic session after Close (via
// errors.Is): late batches fail before touching the coloring, and a batch
// in flight when Close lands fails at its next update boundary, leaving the
// applied prefix in place but journaling nothing — a closed session is
// never mutated further, and never journaled.
var ErrSessionClosed = errors.New("distec: dynamic session closed")

// ErrSessionPassivated marks updates against a Dynamic session after
// Passivate (via errors.Is). It carries the same guarantees as
// ErrSessionClosed — the session is never mutated or journaled after the
// mark lands — but tells the caller the durable state is intact and the
// session can be rehydrated from it: a registry that passivated the session
// to bound its resident set re-resolves the session and retries the batch,
// making passivation invisible to clients. Nothing from a
// passivation-interrupted batch is journaled, so the retry on the
// rehydrated session replays the whole batch exactly once.
var ErrSessionPassivated = errors.New("distec: dynamic session passivated")

// ErrJournal marks ApplyBatch errors from the journal hook (via errors.Is):
// the batch WAS applied to the in-memory coloring — the results are exact —
// but durability is broken, since the journal did not record it. Callers
// holding the session as a system of record should stop serving it.
var ErrJournal = errors.New("distec: session journal write failed")

// DynamicStats counts a dynamic session's update traffic; see NewDynamic.
type DynamicStats = dynamic.Stats

// UpdateOp selects the kind of one edge update.
type UpdateOp string

const (
	// InsertEdge adds the active edge {U, V} and colors it.
	InsertEdge UpdateOp = "insert"
	// DeleteEdge removes the active edge {U, V} and frees its color.
	DeleteEdge UpdateOp = "delete"
)

// Update is one edge update of a batch stream.
type Update struct {
	Op UpdateOp `json:"op"`
	U  int      `json:"u"`
	V  int      `json:"v"`
}

// UpdateResult reports one applied update: the edge's ID, its color after
// the update (−1 for deletes), and which tier served an insert — a free
// palette color (both false), a conflict-region repair (Repaired), or the
// Vizing fan/alternating-path augmentation fallback (Augmented).
type UpdateResult struct {
	Edge      EdgeID `json:"edge"`
	Color     int    `json:"color"`
	Repaired  bool   `json:"repaired"`
	Augmented bool   `json:"augmented"`
}

// DynamicOptions configures NewDynamic.
type DynamicOptions struct {
	// Options selects the algorithm (and, for one-shot sessions, the
	// engine) used for the initial coloring and for every conflict-region
	// repair. Options.Palette fixes the session palette: repairs keep every
	// color below it and infeasible inserts fail with ErrPaletteExhausted.
	// Palette 0 selects the auto palette, grown as inserts raise Δ: 2Δ−1,
	// under which every insert is served greedily — or Δ+1 for Algorithm
	// Vizing, matching its static default, under which inserts are served
	// by the greedy → repair → augmentation ladder and still never
	// rejected.
	Options
	// Pool, when set, runs the initial coloring and every update batch as
	// jobs on the pool's shared worker lanes: a session's repairs
	// interleave with other tenants' jobs round by round, and batch
	// contexts carry cancellation and deadlines into the repair solvers.
	// Options.Engine and Options.Shards are ignored in pool mode (the pool
	// routes executions itself).
	Pool *Pool
}

// Dynamic maintains a proper edge coloring of a graph across edge inserts
// and deletes with locality-bounded repair — the paper's motivating use of
// (deg(e)+1)-list edge coloring as the tool for extending a partial
// coloring, applied incrementally. Deletes free their color; inserts take a
// free palette color when one exists at both endpoints and otherwise
// recolor only the edges inside the conflict region, by running the
// configured algorithm as an ExtendColoring over the induced subinstance.
// Inserts that no target-color repair can serve fall back to one Vizing
// fan/alternating-path augmentation, which succeeds for every palette of at
// least Δ+1 colors — ErrPaletteExhausted is only reachable below Δ+1 (see
// internal/dynamic for the exact repair contract).
//
// A Dynamic is safe for concurrent use; updates are serialized in arrival
// order. Create with NewDynamic.
type Dynamic struct {
	mu   sync.Mutex
	c    *dynamic.Coloring
	opts Options
	pool *Pool
	// engine is the one-shot repair engine (nil in pool mode); cur/curCtx
	// bind repairs to the engine and context of the batch being applied.
	// curCtx is set and cleared under mu strictly within one ApplyBatch, so
	// it never outlives the call that supplied it — it exists only because
	// the repair callbacks have no parameter to carry it.
	engine local.Engine
	cur    local.Engine
	//distec:nolint ctxflow
	curCtx context.Context
	// seq counts applied batches (guarded by mu); journal, when set,
	// receives each one (snapFn is the pre-bound snapshot capture, so the
	// per-batch JournalBatch costs no closure allocation). state is read
	// inside the update loop so an in-flight batch observes Close or
	// Passivate at its next update boundary.
	seq     uint64
	journal JournalFunc
	snapFn  func(io.Writer) error
	state   atomic.Int32
}

// Dynamic lifecycle states (Dynamic.state). Both terminal states suppress
// further mutation and journaling; they differ only in what they promise
// the caller — closed means gone, passivated means rehydratable.
const (
	sessionOpen int32 = iota
	sessionClosed
	sessionPassivated
)

// stopErr maps a terminal state to its sentinel.
func stopErr(state int32) error {
	if state == sessionPassivated {
		return ErrSessionPassivated
	}
	return ErrSessionClosed
}

// JournalFunc receives every applied update batch of a Dynamic session; see
// Dynamic.SetJournal.
type JournalFunc func(b JournalBatch) error

// JournalBatch is one applied batch as handed to a session's journal.
type JournalBatch struct {
	// Seq is the batch's 1-based position in the session's applied-batch
	// sequence; it is contiguous, so a journal replayed in order reproduces
	// the session exactly.
	Seq uint64
	// Applied holds exactly the updates that took effect — the whole batch
	// on success, the applied prefix when the batch failed midway. Valid
	// only during the journal call.
	Applied []Update
	// Snapshot writes a point-in-time snapshot of the session consistent
	// with Seq (the state with exactly the first Seq batches applied).
	// Valid only during the journal call; it must not call back into the
	// session (the session lock is held).
	Snapshot func(w io.Writer) error
}

// NewDynamic computes an initial coloring of g and wraps it for incremental
// maintenance under edge updates. The graph is owned by the session
// afterwards: it must not be mutated or colored elsewhere while the session
// lives.
func NewDynamic(g *Graph, opts DynamicOptions) (*Dynamic, error) {
	var (
		res *Result
		err error
	)
	if opts.Pool != nil {
		res, err = opts.Pool.ColorEdges(context.Background(), g, opts.Options)
	} else {
		res, err = ColorEdges(g, opts.Options)
	}
	if err != nil {
		return nil, fmt.Errorf("distec: dynamic initial coloring: %w", err)
	}
	return NewDynamicFrom(g, res.Colors, opts)
}

// NewDynamicFrom wraps an existing proper coloring of g — computed earlier,
// loaded from storage, or colored under a caller-bounded context — for
// incremental maintenance. colors must properly color every edge of g and,
// under a fixed Options.Palette, stay below it; it is validated once and
// copied.
func NewDynamicFrom(g *Graph, colors []int, opts DynamicOptions) (*Dynamic, error) {
	d := &Dynamic{opts: opts.Options, pool: opts.Pool}
	var err error
	if d.pool == nil {
		d.engine, err = opts.Options.engine()
		if err != nil {
			return nil, err
		}
	}
	d.c, err = dynamic.New(g, colors, dynamic.Options{
		Palette: opts.Palette,
		// A Vizing session's auto palette tracks Δ+1, matching the
		// algorithm's static default — not the 2Δ−1 the other algorithms
		// auto-select — so picking the Δ+1 algorithm actually yields a Δ+1
		// session. The palette grows with Δ, so inserts are still never
		// rejected.
		AutoDeltaPlusOne: opts.Algorithm == Vizing,
		Repair:           d.repairSubinstance,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// repairSubinstance is the session's dynamic.Repairer: solve one conflict-
// region subinstance with the session's algorithm on the engine of the
// batch being applied. Called with d.mu held (updates are serialized).
func (d *Dynamic) repairSubinstance(sub *graph.Graph, partial []int, lists [][]int, palette int) ([]int, error) {
	if err := d.curCtx.Err(); err != nil {
		return nil, err
	}
	res, err := extendOn(sub, partial, lists, palette, d.opts, d.cur)
	if err != nil {
		return nil, err
	}
	return res.Colors, nil
}

// Insert adds the active edge {u, v} and colors it, returning its EdgeID
// and color. See ApplyBatch for the update semantics.
func (d *Dynamic) Insert(u, v int) (EdgeID, int, error) {
	rs, err := d.ApplyBatch(context.Background(), []Update{{Op: InsertEdge, U: u, V: v}})
	if err != nil {
		return -1, -1, err
	}
	return rs[0].Edge, rs[0].Color, nil
}

// Delete removes the active edge {u, v} and frees its color.
func (d *Dynamic) Delete(u, v int) error {
	_, err := d.ApplyBatch(context.Background(), []Update{{Op: DeleteEdge, U: u, V: v}})
	return err
}

// ApplyBatch applies a stream of updates in order, maintaining a proper
// coloring after every one, and reports each update's outcome.
//
// Partial-failure contract: ApplyBatch stops at the first failing update
// and returns the results of the applied prefix alongside the error — the
// coloring reflects exactly len(results) updates, no more and no fewer, so
// a caller (or a write-ahead log) can always reconstruct precisely what
// took effect. An admission-level failure (pool closed, ctx done before a
// worker lane freed, session already closed) returns nil results: nothing
// was applied. The session journal, if set, receives exactly the applied
// prefix (see SetJournal) — except after Close, which suppresses both
// further mutation and journaling.
//
// On a pool-backed session the whole batch runs as one job on the pool's
// shared lanes (admission control, metrics, and ctx cancellation included);
// one-shot sessions run it inline on the session engine. ctx bounds the
// batch either way.
func (d *Dynamic) ApplyBatch(ctx context.Context, updates []Update) ([]UpdateResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.state.Load(); st != sessionOpen {
		return nil, stopErr(st)
	}
	var (
		results []UpdateResult
		apErr   error
	)
	if d.pool == nil {
		results, apErr = d.applyLocked(ctx, d.engine, updates)
	} else {
		err := d.pool.p.Do(ctx, func(eng local.Engine) error {
			results, apErr = d.applyLocked(ctx, eng, updates)
			return apErr
		})
		if err != nil && apErr == nil {
			// Admission-level failure (pool closed, ctx done before a slot
			// freed): nothing was applied.
			return nil, err
		}
	}
	if len(results) > 0 && !errors.Is(apErr, ErrSessionClosed) && !errors.Is(apErr, ErrSessionPassivated) {
		d.seq++
		if d.journal != nil {
			// The journal hook runs under d.mu by documented contract: the
			// session lock is what serializes journal records with the state
			// they describe, so replay order equals apply order. Durability
			// latency under the lock is the price of that equivalence.
			//distec:nolint lockio
			if jerr := d.journal(JournalBatch{
				Seq:      d.seq,
				Applied:  updates[:len(results)],
				Snapshot: d.snapFn,
			}); jerr != nil {
				apErr = errors.Join(apErr, fmt.Errorf("%w: batch %d: %w", ErrJournal, d.seq, jerr))
			}
		}
	}
	return results, apErr
}

// applyLocked applies the batch with repairs bound to the given engine and
// context. Caller holds d.mu.
func (d *Dynamic) applyLocked(ctx context.Context, eng local.Engine, updates []Update) ([]UpdateResult, error) {
	// Session updates have no per-call Options, so a tracer arrives on the
	// context (?trace=1 on the daemon's update endpoint plants it there):
	// wrapping the batch engine makes every repair execution in this batch
	// report to it. FromContext is nil without a tracer and Traced then
	// returns eng unchanged.
	tr := trace.FromContext(ctx)
	tr.SetLabel("repair")
	d.cur, d.curCtx = local.Traced(eng, tr), ctx
	defer func() { d.cur, d.curCtx = nil, nil }()
	results := make([]UpdateResult, 0, len(updates))
	for i, up := range updates {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		if st := d.state.Load(); st != sessionOpen {
			// Close or Passivate landed while this batch was in flight: stop
			// at the update boundary. The applied prefix stays (results are
			// exact) but the caller will neither journal nor continue it —
			// for a passivation that means the prefix dies with the resident
			// state and a retry replays the batch from scratch.
			return results, fmt.Errorf("update %d: %w", i, stopErr(st))
		}
		switch up.Op {
		case InsertEdge:
			beforeRepairs, beforeAugments := d.c.Repairs(), d.c.Augments()
			id, col, err := d.c.Insert(up.U, up.V)
			if err != nil {
				return results, fmt.Errorf("update %d: %w", i, err)
			}
			results = append(results, UpdateResult{
				Edge:      id,
				Color:     col,
				Repaired:  d.c.Repairs() > beforeRepairs,
				Augmented: d.c.Augments() > beforeAugments,
			})
		case DeleteEdge:
			id, _ := d.c.Graph().HasEdge(up.U, up.V)
			if err := d.c.Delete(up.U, up.V); err != nil {
				return results, fmt.Errorf("update %d: %w", i, err)
			}
			results = append(results, UpdateResult{Edge: id, Color: -1})
		default:
			return results, fmt.Errorf("update %d: unknown op %q", i, up.Op)
		}
	}
	return results, nil
}

// Colors returns a fresh copy of the maintained coloring by EdgeID, −1 for
// deleted (tombstoned) edges.
func (d *Dynamic) Colors() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c.Colors()
}

// Color returns edge e's current color, −1 if deleted.
func (d *Dynamic) Color(e EdgeID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c.Color(e)
}

// Edges returns the total number of edges the session's graph holds,
// tombstoned (deleted) edges included — the session's memory footprint is
// proportional to it, since the underlying graph is append-only.
func (d *Dynamic) Edges() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c.Graph().M()
}

// Palette returns the session's current palette size.
func (d *Dynamic) Palette() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c.Palette()
}

// Stats returns a snapshot of the session's update counters.
func (d *Dynamic) Stats() DynamicStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c.Stats()
}

// Verify checks that the maintained coloring is proper over the live edges
// and stays inside the palette — the independent validator used by tests
// and the daemon.
func (d *Dynamic) Verify() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c.Verify()
}

// Seq returns the number of update batches applied so far — the sequence
// number of the session's last applied batch, matching the Seq the journal
// saw for it (batches count whether or not a journal is set).
func (d *Dynamic) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// SetJournal installs fn as the session's journal: after every applied
// batch — including the applied prefix of a batch that failed midway — fn
// is called under the session lock with the batch's sequence number, the
// updates that took effect, and a point-in-time snapshot writer. A journal
// error surfaces from ApplyBatch wrapped in ErrJournal; the in-memory
// coloring keeps the batch either way. Install the journal before serving
// updates (typically right after NewDynamic or RestoreDynamic); a nil fn
// removes it.
func (d *Dynamic) SetJournal(fn JournalFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.journal = fn
	if d.snapFn == nil {
		d.snapFn = d.snapshotLocked
	}
}

// Close marks the session closed: late batches fail immediately with
// ErrSessionClosed and a batch in flight fails at its next update boundary,
// without journaling. Close returns once no update is running, so a caller
// that dropped the session (deleted, evicted) knows the coloring and its
// journal are quiescent. Read accessors (Colors, Stats, Verify, Snapshot)
// keep working. Idempotent.
func (d *Dynamic) Close() error {
	d.state.Store(sessionClosed)
	d.mu.Lock()
	defer d.mu.Unlock()
	return nil
}

// Passivate marks the session passivated: the in-memory instance stops
// accepting updates exactly like Close — late batches fail immediately, a
// batch in flight fails at its next update boundary without journaling —
// but the failure is ErrSessionPassivated, telling callers the session's
// durable state is intact and a fresh instance can be rehydrated from it
// (RestoreDynamic). Passivate returns once no update is running, so the
// caller knows the journal is quiescent and the log can be closed. Read
// accessors keep working on the passivated instance. A closed session
// stays closed.
func (d *Dynamic) Passivate() error {
	d.state.CompareAndSwap(sessionOpen, sessionPassivated)
	d.mu.Lock()
	defer d.mu.Unlock()
	return nil
}
