package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/persist"
)

// buildSession persists a real journaled session under dir: an initial
// snapshot plus batches of WAL records, through the daemon's own journal
// (distec.JournalTo).
func buildSession(t *testing.T, dir string, batches int) *distec.Dynamic {
	t.Helper()
	return buildSessionOpts(t, dir, batches, persist.Options{}, 0)
}

// buildSessionOpts is buildSession with persistence options and an
// optional mid-churn compaction after compactAt batches (0: never) — the
// way to grow a session whose state lives partly in a differential
// snapshot.
func buildSessionOpts(t *testing.T, dir string, batches int, opts persist.Options, compactAt int) *distec.Dynamic {
	t.Helper()
	g := distec.RandomRegular(24, 4, 3)
	d, err := distec.NewDynamic(g, distec.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := persist.CreateLog(dir, d.Snapshot, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.SetJournal(distec.JournalTo(lg))
	// Deterministic churn: delete each original edge, insert a fresh pair.
	for b := 0; b < batches; b++ {
		u1, v1 := g.Endpoints(distec.EdgeID(b))
		batch := []distec.Update{
			{Op: distec.DeleteEdge, U: u1, V: v1},
			{Op: distec.InsertEdge, U: u1, V: v1},
		}
		if _, err := d.ApplyBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		if compactAt > 0 && b+1 == compactAt {
			var buf bytes.Buffer
			if err := d.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := lg.Compact(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	return d
}

func runCtl(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

func TestInspect(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	buildSession(t, dir, 5)
	out, err := runCtl(t, "inspect", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"bko (default)", "snapshot at seq 0", "5 records (10 updates) to seq 5", "n=24 m="} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestVerify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	live := buildSession(t, dir, 5)
	out, err := runCtl(t, "verify", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "ok — seq 5") {
		t.Fatalf("verify output:\n%s", out)
	}
	if !strings.Contains(out, "coloring verified") {
		t.Fatalf("verify output:\n%s", out)
	}
	_ = live
	// Verify is read-only: the files must be byte-identical afterwards.
	before, err := os.ReadFile(filepath.Join(dir, persist.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCtl(t, "verify", dir); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(filepath.Join(dir, persist.WALFile))
	if string(before) != string(after) {
		t.Fatal("verify modified the WAL")
	}
}

func TestVerifyRejectsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	buildSession(t, dir, 3)
	path := filepath.Join(dir, persist.SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x08
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCtl(t, "verify", dir)
	if err == nil {
		t.Fatalf("corrupt snapshot verified:\n%s", out)
	}
	if !strings.Contains(out, "FAILED") {
		t.Fatalf("verify output:\n%s", out)
	}
}

func TestVerifyReportsTornTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	buildSession(t, dir, 4)
	path := filepath.Join(dir, persist.WALFile)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	out, err := runCtl(t, "verify", dir)
	if err != nil {
		t.Fatalf("torn tail must not fail verification: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok — seq 3") || !strings.Contains(out, "torn final record discarded") {
		t.Fatalf("verify output:\n%s", out)
	}
}

func TestCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	live := buildSession(t, dir, 6)
	out, err := runCtl(t, "compact", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "compacted — snapshot now at seq 6") {
		t.Fatalf("compact output:\n%s", out)
	}
	// The compacted state recovers to the same coloring, with no records
	// left to replay.
	snap, replay, _, err := persist.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 6 || len(replay) != 0 {
		t.Fatalf("after compact: snapshot seq %d, %d records", snap.Seq, len(replay))
	}
	d, err := distec.RestoreDynamic(context.Background(), snap, replay, distec.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, got := live.Colors(), d.Colors()
	for e := range want {
		if want[e] != got[e] {
			t.Fatalf("edge %d: color %d after compact, want %d", e, got[e], want[e])
		}
	}
	// And verify still passes.
	if out, err := runCtl(t, "verify", dir); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

func TestDataDirResolution(t *testing.T) {
	root := t.TempDir()
	buildSession(t, filepath.Join(root, "aaa"), 2)
	buildSession(t, filepath.Join(root, "bbb"), 3)
	out, err := runCtl(t, "verify", root)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "aaa: ok") || !strings.Contains(out, "bbb: ok") {
		t.Fatalf("multi-session verify output:\n%s", out)
	}
	// One corrupt session fails the run but the others still report.
	path := filepath.Join(root, "aaa", persist.SnapshotFile)
	data, _ := os.ReadFile(path)
	data[10] ^= 0x04
	os.WriteFile(path, data, 0o644)
	out, err = runCtl(t, "verify", root)
	if err == nil || !strings.Contains(err.Error(), "1 of 2 sessions failed") {
		t.Fatalf("err=%v\n%s", err, out)
	}
	if !strings.Contains(out, "bbb: ok") {
		t.Fatalf("healthy session not reported:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if _, err := runCtl(t, "inspect"); err == nil || !isUsageError(err) {
		t.Fatalf("missing dir: err = %v, want usage error", err)
	}
	if _, err := runCtl(t, "explode", t.TempDir()); err == nil || !isUsageError(err) {
		t.Fatalf("unknown command: err = %v, want usage error", err)
	}
	if _, err := runCtl(t, "-fsync", "sometimes", "compact", t.TempDir()); err == nil || !isUsageError(err) {
		t.Fatalf("unknown -fsync mode: err = %v, want usage error", err)
	}
	if _, err := runCtl(t, "-bogus", "inspect", t.TempDir()); err == nil || !isUsageError(err) {
		t.Fatalf("unknown flag: err = %v, want usage error", err)
	}
	// An empty directory is an operation failure, not a usage error.
	if _, err := runCtl(t, "inspect", t.TempDir()); err == nil || isUsageError(err) {
		t.Fatalf("empty dir: err = %v, want non-usage failure", err)
	}
}

// TestDiffCompactedSessionTools pins the tools against a session whose
// state lives partly in a differential snapshot: inspect reports the diff
// chain, verify restores the MERGED snapshot (reading the raw base file
// would silently drop every diff-covered batch), and compact folds
// everything back into one full snapshot.
func TestDiffCompactedSessionTools(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	live := buildSessionOpts(t, dir, 6, persist.Options{DiffCompact: true}, 3)
	if _, err := os.Stat(filepath.Join(dir, persist.DiffFile)); err != nil {
		t.Fatalf("no diff file after diff compaction: %v", err)
	}
	out, err := runCtl(t, "inspect", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "differential snapshot") {
		t.Fatalf("inspect silent about the diff chain:\n%s", out)
	}
	out, err = runCtl(t, "verify", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "ok — seq 6") {
		t.Fatalf("verify output:\n%s", out)
	}
	// The restored coloring is the live one, diffs included.
	snap, replay, _, err := persist.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := distec.RestoreDynamic(context.Background(), snap, replay, distec.DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, got := live.Colors(), d.Colors()
	for e := range want {
		if want[e] != got[e] {
			t.Fatalf("edge %d: color %d restored, want %d", e, got[e], want[e])
		}
	}
	// compact folds base + diffs + WAL into one full snapshot.
	out, err = runCtl(t, "compact", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, persist.DiffFile)); !os.IsNotExist(err) {
		t.Fatalf("diff file survived offline compact: %v", err)
	}
	if out, err := runCtl(t, "verify", dir); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

// TestPartialSessionDir pins the report on damaged layouts: a session
// whose snapshot is gone fails loudly (exit 1 path), and an empty
// subdirectory in a data dir is skipped exactly like the daemon skips it.
func TestPartialSessionDir(t *testing.T) {
	root := t.TempDir()
	buildSession(t, filepath.Join(root, "aaa"), 2)
	// A WAL without its snapshot: the session must be listed and must fail
	// its scan — not silently disappear from the report.
	broken := filepath.Join(root, "bbb")
	buildSession(t, broken, 2)
	if err := os.Remove(filepath.Join(broken, persist.SnapshotFile)); err != nil {
		t.Fatal(err)
	}
	out, err := runCtl(t, "verify", root)
	if err == nil || isUsageError(err) {
		t.Fatalf("partial session dir: err = %v, want operation failure\n%s", err, out)
	}
	if !strings.Contains(out, "bbb: FAILED") || !strings.Contains(out, "aaa: ok") {
		t.Fatalf("verify output:\n%s", out)
	}
	// Pointed directly at the partial dir, same story.
	out, err = runCtl(t, "verify", broken)
	if err == nil || isUsageError(err) {
		t.Fatalf("direct partial dir: err = %v, want operation failure\n%s", err, out)
	}

	// An empty subdirectory is not a session: skipped, run still succeeds.
	empty := t.TempDir()
	buildSession(t, filepath.Join(empty, "aaa"), 2)
	if err := os.Mkdir(filepath.Join(empty, "zzz"), 0o755); err != nil {
		t.Fatal(err)
	}
	out, err = runCtl(t, "verify", empty)
	if err != nil {
		t.Fatalf("empty subdirectory broke the run: %v\n%s", err, out)
	}
	if strings.Contains(out, "zzz") {
		t.Fatalf("empty subdirectory reported:\n%s", out)
	}
}

// TestExitCodes pins the process exit contract scripts depend on.
func TestExitCodes(t *testing.T) {
	if got := exitCode(nil); got != 0 {
		t.Fatalf("success: exit %d, want 0", got)
	}
	if got := exitCode(errors.New("session failed")); got != 1 {
		t.Fatalf("operation failure: exit %d, want 1", got)
	}
	if got := exitCode(usageError{msg: "bad"}); got != 2 {
		t.Fatalf("usage error: exit %d, want 2", got)
	}
	// The usage error carries its message through the error interface —
	// that string is what main prints before exiting 2.
	if err := run([]string{"frobnicate", "x"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("unknown command error: %v", err)
	}
}

// TestUnreplayableWALFails pins the failure mode where the files are
// intact (every checksum passes) but the recorded updates cannot replay:
// a record inserting an out-of-range node, and a final record holding no
// updates, which applies no batch and so leaves the session short of the
// WAL's head seq. verify must report the session as failed (exit 1), and
// compact must refuse to rewrite the snapshot.
func TestUnreplayableWALFails(t *testing.T) {
	for _, tc := range []struct {
		name    string
		updates []persist.Update
	}{
		{"out-of-range node", []persist.Update{{Op: persist.OpInsert, U: 9999, V: 9998}}},
		{"empty record", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "sess")
			buildSession(t, dir, 2)
			lg, _, _, err := persist.OpenLog(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := lg.Append(persist.Record{Seq: 3, Updates: tc.updates}); err != nil {
				t.Fatal(err)
			}
			if err := lg.Close(); err != nil {
				t.Fatal(err)
			}
			out, err := runCtl(t, "verify", dir)
			if exitCode(err) != 1 || !strings.Contains(out, "FAILED") {
				t.Fatalf("verify of unreplayable WAL: exit %d, err=%v\n%s", exitCode(err), err, out)
			}
			out, err = runCtl(t, "compact", dir)
			if err == nil || !strings.Contains(out, "FAILED") {
				t.Fatalf("compact of unreplayable WAL: err=%v\n%s", err, out)
			}
			// Refusing means the files are still there, untouched, for
			// inspection.
			if out, err := runCtl(t, "inspect", dir); err != nil {
				t.Fatalf("inspect after refused compact: %v\n%s", err, out)
			}
		})
	}
}

func TestCompactFsyncNone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	buildSession(t, dir, 4)
	out, err := runCtl(t, "-fsync", "none", "compact", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "compacted — snapshot now at seq 4") {
		t.Fatalf("compact output:\n%s", out)
	}
	if out, err := runCtl(t, "verify", dir); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}
