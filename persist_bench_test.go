package distec

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/distec/distec/internal/bench"
	"github.com/distec/distec/internal/persist"
)

// journalOn wires a session to a persist.Log exactly as the daemon does,
// through JournalTo: every applied batch becomes one WAL record.
func journalOn(b *testing.B, d *Dynamic, dir string, opts persist.Options) *persist.Log {
	b.Helper()
	lg, err := persist.CreateLog(dir, d.Snapshot, opts)
	if err != nil {
		b.Fatal(err)
	}
	d.SetJournal(JournalTo(lg))
	return lg
}

// BenchmarkPersist measures what durability costs the dynamic layer — the
// BENCH_persist.json experiment:
//
//   - churn/*: µs per single-edge update on the 10⁵-edge auto-palette
//     session of BenchmarkDynamic, with journaling off, on (fsync-less fast
//     mode: one kernel write per batch), and fully fsynced. The acceptance
//     figure is journal-on within 2× of journal-off in fsync-less mode.
//     Compaction is disabled here so the numbers isolate the append path;
//     its cost has its own benchmark below.
//   - recovery/*: full crash recovery (OpenLog with tail repair +
//     RestoreDynamic: snapshot restore, WAL replay, seq check and Verify)
//     against WAL length.
//   - compact: one compaction of the 10⁵-edge session — the in-memory
//     snapshot capture under the session lock plus the synchronous disk
//     work the daemon normally backgrounds.
//   - snapshot-encode: the capture alone (what an update batch pays extra
//     when it trips the compaction threshold).
func BenchmarkPersist(b *testing.B) {
	noCompact := persist.Options{CompactBytes: 1 << 40}
	churn := func(b *testing.B, journaled bool, opts persist.Options) {
		g := benchDynamicGraph()
		d, err := NewDynamic(g, DynamicOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if journaled {
			lg := journalOn(b, d, filepath.Join(b.TempDir(), "sess"), opts)
			defer lg.Close()
		}
		ops := bench.Churn(g, b.N, 7)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := ops[i]
			if op.Delete {
				err = d.Delete(op.U, op.V)
			} else {
				_, _, err = d.Insert(op.U, op.V)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := d.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("churn/journal-off", func(b *testing.B) { churn(b, false, persist.Options{}) })
	b.Run("churn/journal-on", func(b *testing.B) { churn(b, true, noCompact) })
	b.Run("churn/journal-fsync", func(b *testing.B) {
		churn(b, true, persist.Options{Fsync: true, CompactBytes: 1 << 40})
	})

	for _, walLen := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("recovery/wal-%d", walLen), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "sess")
			g := benchDynamicGraph()
			d, err := NewDynamic(g, DynamicOptions{})
			if err != nil {
				b.Fatal(err)
			}
			lg := journalOn(b, d, dir, noCompact)
			ops := bench.Churn(g, walLen, 7)
			for _, op := range ops {
				if op.Delete {
					err = d.Delete(op.U, op.V)
				} else {
					_, _, err = d.Insert(op.U, op.V)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := lg.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lg, snap, records, err := persist.OpenLog(dir, persist.Options{})
				if err != nil {
					b.Fatal(err)
				}
				r, err := RestoreDynamic(context.Background(), snap, records, DynamicOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if r.Seq() != uint64(walLen) {
					b.Fatalf("recovered to seq %d, want %d", r.Seq(), walLen)
				}
				lg.Close()
			}
		})
	}

	b.Run("compact", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "sess")
		g := benchDynamicGraph()
		d, err := NewDynamic(g, DynamicOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lg := journalOn(b, d, dir, noCompact)
		defer lg.Close()
		if _, _, err := d.Insert(absentPair(g)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := d.Snapshot(&buf); err != nil {
				b.Fatal(err)
			}
			if err := lg.Compact(buf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("snapshot-encode", func(b *testing.B) {
		g := benchDynamicGraph()
		d, err := NewDynamic(g, DynamicOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.Snapshot(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPassivation measures the passivation economy — the
// BENCH_persist.json "passivation" section:
//
//   - rehydrate/*: the full price of touching a passivated session (what
//     the daemon's acquire pays on a miss): OpenLog with the diff chain
//     merged, coloring restore, WAL replay, and the independent Verify,
//     against the replay length left after compaction.
//   - compact-full vs compact-diff: the same small-delta compaction served
//     by a full snapshot rewrite and by an appended differential snapshot,
//     with the bytes each one writes reported alongside the time.
func BenchmarkPassivation(b *testing.B) {
	for _, walLen := range []int{100, 1000} {
		b.Run(fmt.Sprintf("rehydrate/wal-%d", walLen), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "sess")
			g := benchDynamicGraph()
			d, err := NewDynamic(g, DynamicOptions{})
			if err != nil {
				b.Fatal(err)
			}
			lg := journalOn(b, d, dir, persist.Options{CompactBytes: 1 << 40})
			for _, op := range bench.Churn(g, walLen, 7) {
				if op.Delete {
					err = d.Delete(op.U, op.V)
				} else {
					_, _, err = d.Insert(op.U, op.V)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := lg.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lg, snap, records, err := persist.OpenLog(dir, persist.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := RestoreDynamic(context.Background(), snap, records, DynamicOptions{}); err != nil {
					b.Fatal(err)
				}
				lg.Close()
			}
		})
	}

	smallDeltaCompact := func(b *testing.B, diff bool, watch string) {
		dir := filepath.Join(b.TempDir(), "sess")
		g := benchDynamicGraph()
		d, err := NewDynamic(g, DynamicOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lg := journalOn(b, d, dir, persist.Options{CompactBytes: 1 << 40, DiffCompact: diff})
		defer lg.Close()
		ops := bench.Churn(g, 4*b.N+4, 13)
		fileSize := func(name string) int64 {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				return 0
			}
			return fi.Size()
		}
		b.ResetTimer()
		var written int64
		for i := 0; i < b.N; i++ {
			// A four-update delta since the last compaction: the regime the
			// differential path exists for.
			for k := 0; k < 4; k++ {
				op := ops[4*i+k]
				if op.Delete {
					err = d.Delete(op.U, op.V)
				} else {
					_, _, err = d.Insert(op.U, op.V)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := d.Snapshot(&buf); err != nil {
				b.Fatal(err)
			}
			before := fileSize(watch)
			if err := lg.Compact(buf.Bytes()); err != nil {
				b.Fatal(err)
			}
			if !diff {
				written += fileSize(watch) // the full path rewrites the file
			} else if after := fileSize(watch); after >= before {
				written += after - before // the diff path appends
			} else {
				// The diff file shrank: this compaction fell back to a full
				// snapshot rewrite (the chain had grown past the point where
				// appending beats rewriting) and cleared the chain.
				written += fileSize(persist.SnapshotFile)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(written)/float64(b.N), "disk-bytes/op")
	}
	b.Run("compact-full", func(b *testing.B) { smallDeltaCompact(b, false, persist.SnapshotFile) })
	b.Run("compact-diff", func(b *testing.B) { smallDeltaCompact(b, true, persist.DiffFile) })
}

// absentPair returns one node pair that is not an edge of g.
func absentPair(g *Graph) (int, int) {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if _, ok := g.HasEdge(u, v); !ok {
				return u, v
			}
		}
	}
	panic("complete graph")
}
