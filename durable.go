package distec

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"github.com/distec/distec/internal/dynamic"
	"github.com/distec/distec/internal/persist"
)

// How a journaled Dynamic is written and read back: the snapshot codec,
// the one write-ahead-log encoder (JournalTo) and the one restore path
// (RestoreDynamic). Keeping both directions here is what stops the op
// mapping and the restore checks from diverging between callers.

// Snapshot writes a point-in-time snapshot of the session — graph
// (tombstones included, preserving EdgeIDs), active-edge overlay, coloring,
// palette/algorithm/seed header, and the applied-batch sequence number —
// in the checksummed binary format NewDynamicFromSnapshot reads.
func (d *Dynamic) Snapshot(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Snapshot consistency requires serializing under mu: the encoder must
	// observe a coloring no update is mutating, so the writer's latency is
	// deliberately inside the lock.
	//distec:nolint lockio
	return d.snapshotLocked(w)
}

// snapshotLocked encodes the session state; caller holds d.mu (it is also
// the JournalBatch.Snapshot capture, invoked from inside ApplyBatch).
func (d *Dynamic) snapshotLocked(w io.Writer) error {
	g := d.c.Graph()
	m := g.M()
	snap := &persist.Snapshot{
		Algorithm:     string(d.opts.Algorithm),
		Seed:          d.opts.Seed,
		ConfigPalette: d.opts.Palette,
		LivePalette:   d.c.Palette(),
		Seq:           d.seq,
		N:             g.N(),
		EdgeU:         make([]int32, m),
		EdgeV:         make([]int32, m),
		Active:        d.c.Active(),
		Colors:        make([]int32, m),
	}
	for e, ed := range g.Edges() {
		snap.EdgeU[e], snap.EdgeV[e] = ed.U, ed.V
	}
	for e, col := range d.c.Colors() {
		snap.Colors[e] = int32(col)
	}
	return persist.WriteSnapshot(w, snap)
}

// NewDynamicFromSnapshot restores a session from a Snapshot stream: the
// graph, overlay, coloring, and applied-batch sequence number come from the
// snapshot, as do the session options (algorithm, palette, seed) — opts
// contributes only the execution choices (Pool, or Engine/Shards for a
// one-shot session). The restored coloring is validated like NewDynamicFrom
// validates a fresh one. To finish a crash recovery, replay the session's
// write-ahead log records beyond the snapshot's sequence number through
// ApplyBatch, in order, before installing a journal.
func NewDynamicFromSnapshot(r io.Reader, opts DynamicOptions) (*Dynamic, error) {
	snap, err := persist.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return newDynamicFromState(snap, opts)
}

// newDynamicFromState is NewDynamicFromSnapshot for an already-parsed
// snapshot.
func newDynamicFromState(snap *persist.Snapshot, opts DynamicOptions) (*Dynamic, error) {
	var err error
	switch Algorithm(snap.Algorithm) {
	case "", BKO, BKOTheory, PR01, GreedyClasses, Randomized, Vizing:
	default:
		return nil, fmt.Errorf("distec: snapshot names unknown algorithm %q", snap.Algorithm)
	}
	g := NewGraph(snap.N)
	for e := range snap.EdgeU {
		if _, err := g.AddEdge(int(snap.EdgeU[e]), int(snap.EdgeV[e])); err != nil {
			return nil, fmt.Errorf("distec: snapshot edge %d: %w", e, err)
		}
	}
	o := opts.Options
	o.Algorithm = Algorithm(snap.Algorithm)
	o.Palette = snap.ConfigPalette
	o.Seed = snap.Seed
	d := &Dynamic{opts: o, pool: opts.Pool, seq: snap.Seq}
	if d.pool == nil {
		if d.engine, err = o.engine(); err != nil {
			return nil, err
		}
	}
	colors := make([]int, len(snap.Colors))
	for e, col := range snap.Colors {
		colors[e] = int(col)
	}
	d.c, err = dynamic.Restore(g, snap.Active, colors, snap.LivePalette, dynamic.Options{
		Palette:          o.Palette,
		AutoDeltaPlusOne: o.Algorithm == Vizing,
		Repair:           d.repairSubinstance,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// RestoreDynamic rebuilds a journaled session from its durable state: snap
// (the base snapshot with any differential chain merged, as persist.OpenLog
// and persist.ScanDir return it) is restored, the write-ahead-log records
// beyond it are replayed in order, and the result is checked twice — every
// record must apply as exactly one batch, so the session ends at seq
// snap.Seq+len(records), and the coloring must Verify. A session that
// fails either check is refused rather than served. ctx bounds the replay.
// Install a journal (JournalTo) only after it returns. The parameter types
// live in an internal package, making this module plumbing; external
// callers restore with NewDynamicFromSnapshot and replay through
// ApplyBatch.
func RestoreDynamic(ctx context.Context, snap *persist.Snapshot, records []persist.Record, opts DynamicOptions) (*Dynamic, error) {
	d, err := newDynamicFromState(snap, opts)
	if err != nil {
		return nil, err
	}
	var updates []Update
	for _, rec := range records {
		updates = updates[:0]
		for _, up := range rec.Updates {
			op := InsertEdge
			if up.Op == persist.OpDelete {
				op = DeleteEdge
			}
			updates = append(updates, Update{Op: op, U: int(up.U), V: int(up.V)})
		}
		if _, err := d.ApplyBatch(ctx, updates); err != nil {
			return nil, fmt.Errorf("distec: replay batch %d: %w", rec.Seq, err)
		}
	}
	if want := snap.Seq + uint64(len(records)); d.Seq() != want {
		return nil, fmt.Errorf("distec: replayed %d records to seq %d, want %d", len(records), d.Seq(), want)
	}
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("distec: restored coloring invalid: %w", err)
	}
	return d, nil
}

// JournalTo returns the journal that makes a session durable in lg: every
// applied batch is appended as one WAL record, and once the WAL outgrows
// lg's compaction threshold a point-in-time snapshot is captured (in
// memory, under the session lock) and the disk work handed to a background
// compaction. The hook captures lg itself, not the session: a rehydrated
// session gets a fresh hook over a fresh log, so a stale hook can never
// append to a log that was swapped out from under it.
func JournalTo(lg *persist.Log) JournalFunc {
	// scratch is safe to recycle across batches: the journal runs under the
	// session lock and Append encodes the record before returning.
	var scratch []persist.Update
	return func(b JournalBatch) error {
		if cap(scratch) < len(b.Applied) {
			scratch = make([]persist.Update, len(b.Applied))
		}
		rec := persist.Record{Seq: b.Seq, Updates: scratch[:len(b.Applied)]}
		for i, up := range b.Applied {
			op := persist.OpInsert
			if up.Op == DeleteEdge {
				op = persist.OpDelete
			}
			rec.Updates[i] = persist.Update{Op: op, U: int32(up.U), V: int32(up.V)}
		}
		if err := lg.Append(rec); err != nil {
			return err
		}
		if lg.NeedsCompaction() {
			var buf bytes.Buffer
			if err := b.Snapshot(&buf); err != nil {
				return fmt.Errorf("compaction snapshot: %w", err)
			}
			return lg.CompactAsync(buf.Bytes())
		}
		return nil
	}
}
