// Command sessionctl inspects, verifies, and compacts the on-disk state of
// persisted dynamic sessions (the snapshot + WAL directories an edgecolord
// -data-dir maintains), offline — point it at a stopped daemon's data
// directory or at one session directory.
//
// Usage:
//
//	sessionctl [-fsync always|none] inspect <dir>
//	sessionctl [-fsync always|none] verify  <dir>
//	sessionctl [-fsync always|none] compact <dir>
//
// inspect prints each session's header, sequence state, and WAL/diff
// summary (read-only). verify fully recovers each session in memory (the
// differential-snapshot chain merged over the base, WAL replayed on top)
// and checks the resulting coloring independently (read-only). compact
// recovers each session, writes a fresh full snapshot at the head sequence
// number, and retires the WAL and diff chain; -fsync controls whether the
// rewrite is flushed to the device (always, the default) or left to the
// kernel (none — faster, survives process crashes only).
//
// <dir> is either one session directory (it contains session files —
// snapshot, wal, or diff) or a data directory whose subdirectories are
// sessions. A partial session directory (say a WAL whose snapshot is gone)
// is reported as that session's failure; empty subdirectories are skipped
// like the daemon's recovery skips them.
//
// Exit codes are pinned: 0 every session succeeded, 1 any session failed
// (a torn WAL tail is not a failure — recovery discards it by design, but
// it is reported), 2 usage errors — unknown subcommands, unknown -fsync
// modes, a missing directory operand.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/persist"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sessionctl:", err)
	}
	os.Exit(exitCode(err))
}

// exitCode pins the contract scripts depend on: 0 success, 1 operation
// failure (a session failed to scan, verify, or compact), 2 usage error.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case isUsageError(err):
		return 2
	default:
		return 1
	}
}

// usageError marks a malformed invocation, so main can exit 2 (as flag
// parsing failures conventionally do) instead of 1 (operation failed).
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func isUsageError(err error) bool {
	_, ok := err.(usageError)
	return ok
}

const usage = "usage: sessionctl [-fsync always|none] inspect|verify|compact <session-dir|data-dir>"

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sessionctl", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fsyncMode := fs.String("fsync", "always", "durability of compact's rewrite: always or none")
	fs.Usage = func() {}
	if err := fs.Parse(args); err != nil {
		return usageError{msg: fmt.Sprintf("%v\n%s", err, usage)}
	}
	if *fsyncMode != "always" && *fsyncMode != "none" {
		return usageError{msg: fmt.Sprintf("unknown -fsync mode %q (want always or none)", *fsyncMode)}
	}
	rest := fs.Args()
	if len(rest) != 2 {
		return usageError{msg: usage}
	}
	cmd, root := rest[0], rest[1]
	var fn func(dir string, out io.Writer) error
	switch cmd {
	case "inspect":
		fn = inspectSession
	case "verify":
		fn = verifySession
	case "compact":
		opts := persist.Options{Fsync: *fsyncMode == "always"}
		fn = func(dir string, out io.Writer) error { return compactSession(dir, opts, out) }
	default:
		return usageError{msg: fmt.Sprintf("unknown command %q (want inspect, verify, or compact)", cmd)}
	}
	dirs, err := sessionDirs(root)
	if err != nil {
		return err
	}
	failures := 0
	for _, dir := range dirs {
		if err := fn(dir, out); err != nil {
			fmt.Fprintf(out, "%s: FAILED: %v\n", dir, err)
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d sessions failed", failures, len(dirs))
	}
	return nil
}

// holdsSessionFiles reports whether dir carries any persisted session
// state. A partial directory — say a WAL whose snapshot never made it, the
// footprint of a crash inside CreateLog — still counts: it must surface as
// that session's scan failure, not vanish from the report.
func holdsSessionFiles(dir string) bool {
	for _, name := range []string{persist.SnapshotFile, persist.WALFile, persist.DiffFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// sessionDirs resolves root to the session directories it holds: itself if
// it contains session files, otherwise every child directory that does.
// Empty child directories are skipped (the daemon's recovery does the
// same); a root with no session state anywhere is an operation failure.
func sessionDirs(root string) ([]string, error) {
	if holdsSessionFiles(root) {
		return []string{root}, nil
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if holdsSessionFiles(dir) {
			dirs = append(dirs, dir)
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("%s holds no session (no snapshot, WAL, or diff file at or below it)", root)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func inspectSession(dir string, out io.Writer) error {
	snap, replay, info, err := persist.ScanDir(dir)
	if err != nil {
		return err
	}
	live := 0
	for _, a := range snap.Active {
		if a {
			live++
		}
	}
	alg := snap.Algorithm
	if alg == "" {
		alg = "bko (default)"
	}
	head := snap.Seq
	if n := len(replay); n > 0 {
		head = replay[n-1].Seq
	}
	updates := 0
	for _, rec := range replay {
		updates += len(rec.Updates)
	}
	fmt.Fprintf(out, "%s:\n", dir)
	fmt.Fprintf(out, "  algorithm %s, seed %d, palette %d configured / %d live\n",
		alg, snap.Seed, snap.ConfigPalette, snap.LivePalette)
	fmt.Fprintf(out, "  graph: n=%d m=%d (%d active, %d tombstoned)\n",
		snap.N, len(snap.EdgeU), live, len(snap.EdgeU)-live)
	fmt.Fprintf(out, "  snapshot at seq %d; WAL %d bytes, %d records (%d updates) to seq %d\n",
		snap.Seq, info.WALBytes, len(replay), updates, head)
	if info.Stale > 0 {
		fmt.Fprintf(out, "  %d stale records already covered by the snapshot (compaction leftovers)\n", info.Stale)
	}
	if info.Diffs > 0 {
		fmt.Fprintf(out, "  %d differential snapshots (%d bytes) merged over the base\n", info.Diffs, info.DiffBytes)
	}
	if info.StaleDiffs > 0 {
		fmt.Fprintf(out, "  %d stale diffs already covered by the base snapshot (compaction leftovers)\n", info.StaleDiffs)
	}
	if info.TornDiff {
		fmt.Fprintf(out, "  torn final diff record discarded (crash mid-diff-compaction)\n")
	}
	if info.PrevBytes > 0 {
		fmt.Fprintf(out, "  interrupted compaction: wal.prev of %d bytes pending merge\n", info.PrevBytes)
	}
	if info.TornTail {
		fmt.Fprintf(out, "  torn final record discarded (crash mid-append)\n")
	}
	return nil
}

// verifySession recovers one session fully in memory through the restore
// path the daemon boots with (distec.RestoreDynamic: snapshot restored,
// WAL replayed on the sequential engine, head seq checked, coloring
// verified). The snapshot is the effective one ScanDir returns, with the
// differential-snapshot chain merged over the base: reading the raw
// snapshot file instead would silently drop every diff-compacted batch.
func verifySession(dir string, out io.Writer) error {
	snap, replay, info, err := persist.ScanDir(dir)
	if err != nil {
		return err
	}
	d, err := distec.RestoreDynamic(context.Background(), snap, replay, distec.DynamicOptions{})
	if err != nil {
		return err
	}
	st := d.Stats()
	note := ""
	if info.TornTail {
		note = " (torn final record discarded)"
	}
	fmt.Fprintf(out, "%s: ok — seq %d, %d active edges, palette %d, coloring verified%s\n",
		dir, d.Seq(), st.ActiveEdges, d.Palette(), note)
	return nil
}

func compactSession(dir string, opts persist.Options, out io.Writer) error {
	// OpenLog repairs the files (torn tail, interrupted compaction) and
	// hands back the log for the rewrite.
	lg, snap, replay, err := persist.OpenLog(dir, opts)
	if err != nil {
		return err
	}
	defer lg.Close()
	before := lg.WALSize()
	d, err := distec.RestoreDynamic(context.Background(), snap, replay, distec.DynamicOptions{})
	if err != nil {
		return fmt.Errorf("refusing to compact: %w", err)
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		return err
	}
	if err := lg.Compact(buf.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: compacted — snapshot now at seq %d, WAL %d bytes → %d\n",
		dir, d.Seq(), before, lg.WALSize())
	return nil
}
