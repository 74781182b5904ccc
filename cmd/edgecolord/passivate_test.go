package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/persist/errfs"
)

// createCycleSessions creates n sessions over a 4-cycle and returns their
// IDs in creation order: under maxResident 1 all but the last end up
// passivated.
func createCycleSessions(t *testing.T, baseURL string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, baseURL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create: status %d: %s", resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.SessionID)
	}
	return ids
}

// TestRehydrationFailureSurfaces injects corruption into a passivated
// session's snapshot: the next touch must fail loudly (500, never a wrong
// coloring), leave the files in place for sessionctl, and leave the other
// sessions serving.
func TestRehydrationFailureSurfaces(t *testing.T) {
	dataDir := t.TempDir()
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1})
	ids := createCycleSessions(t, ts.URL, 2)
	if d.residentCount.Load() != 1 {
		t.Fatalf("%d resident, want 1", d.residentCount.Load())
	}
	// ids[0] is passivated; flip one byte inside its snapshot body.
	snapPath := filepath.Join(dataDir, ids[0], persist.SnapshotFile)
	if err := errfs.FlipByte(snapPath, 40, 0x10); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/v1/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt rehydration answered %d, want 500", r.StatusCode)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("corrupt session files removed, want kept for offline repair: %v", err)
	}
	// The resident session is untouched by the neighbor's corruption.
	resp, body := postJSON(t, ts.URL+"/v1/session/"+ids[1]+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy session update: status %d: %s", resp.StatusCode, body)
	}
}

// TestRehydrationRefusesEmptyWALRecord appends a checksummed WAL record
// holding no updates to a passivated session: it replays as no batch, so
// the restored session would stop one seq short of the WAL head. The touch
// must fail like boot recovery and sessionctl do — 500, files kept — not
// serve the stale state as verified.
func TestRehydrationRefusesEmptyWALRecord(t *testing.T) {
	dataDir := t.TempDir()
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1})
	ids := createCycleSessions(t, ts.URL, 2)
	sess, _ := d.session(ids[0])
	if sess.resident.Load() {
		t.Fatal("first session still resident; passivation did not trigger")
	}
	dir := filepath.Join(dataDir, ids[0])
	lg, _, _, err := persist.OpenLog(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(persist.Record{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/v1/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusInternalServerError {
		t.Fatalf("rehydration over an empty WAL record answered %d, want 500: %s", r.StatusCode, body)
	}
	if sess.resident.Load() {
		t.Fatal("refused rehydration left the session resident")
	}
	snap, replay, _, err := persist.ScanDir(dir)
	if err != nil {
		t.Fatalf("session files damaged by the refused rehydration: %v", err)
	}
	if snap.Seq != 0 || len(replay) != 1 {
		t.Fatalf("after refused rehydration: snapshot seq %d, %d records, want 0 and 1", snap.Seq, len(replay))
	}
}

// TestRehydrationCompactsOversizedWAL boots a daemon whose WAL threshold
// is below what two passivated-at-boot sessions already hold: touching the
// passivated one must leave it compacted, as boot recovery leaves the
// resident one.
func TestRehydrationCompactsOversizedWAL(t *testing.T) {
	const batches, compactBytes = 4, 64
	dataDir := t.TempDir()
	ts, _, crash := startDiskDaemon(t, dataDir)
	ids := createCycleSessions(t, ts.URL, 2)
	chords := []distec.Update{
		{Op: distec.InsertEdge, U: 0, V: 2},
		{Op: distec.InsertEdge, U: 1, V: 3},
		{Op: distec.DeleteEdge, U: 0, V: 2},
		{Op: distec.DeleteEdge, U: 1, V: 3},
	}
	for _, id := range ids {
		for _, up := range chords[:batches] {
			resp, body := postJSON(t, ts.URL+"/v1/session/"+id+"/update", updateRequest{Updates: []distec.Update{up}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("update: status %d: %s", resp.StatusCode, body)
			}
		}
	}
	crash()

	ts2, d2, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1, compactBytes: compactBytes})
	var cold string
	for _, id := range ids {
		sess, ok := d2.session(id)
		if !ok {
			t.Fatalf("session %s not recovered", id)
		}
		if !sess.resident.Load() {
			cold = id
		}
	}
	if cold == "" {
		t.Fatal("no session registered passivated at boot")
	}
	dir := filepath.Join(dataDir, cold)
	_, _, info, err := persist.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.WALBytes <= compactBytes {
		t.Fatalf("passivated WAL holds %d bytes, want over the %d-byte threshold", info.WALBytes, compactBytes)
	}
	r, err := http.Get(ts2.URL + "/v1/session/" + cold)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("rehydrating GET: status %d: %s", r.StatusCode, body)
	}
	if !sr.Verified || sr.Seq != batches {
		t.Fatalf("rehydrated session: verified %v at seq %d, want verified at %d", sr.Verified, sr.Seq, batches)
	}
	snap, replay, _, err := persist.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != batches || len(replay) != 0 {
		t.Fatalf("after rehydration: snapshot seq %d, %d records, want %d and 0 (compacted)", snap.Seq, len(replay), batches)
	}
}

// TestPassivatedSessionBadBatchSkipsRehydration sends malformed, empty and
// oversized batches to a passivated session: each is refused with 400
// from its body alone, without rehydrating the session (which would also
// passivate its resident neighbor).
func TestPassivatedSessionBadBatchSkipsRehydration(t *testing.T) {
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir(), maxResident: 1})
	ids := createCycleSessions(t, ts.URL, 2)
	cold, _ := d.session(ids[0])
	if cold.resident.Load() {
		t.Fatal("first session still resident; passivation did not trigger")
	}
	oversized, err := json.Marshal(updateRequest{Updates: make([]distec.Update, maxUpdatesPerBatch+1)})
	if err != nil {
		t.Fatal(err)
	}
	before := d.rehydrations.Load()
	for _, tc := range []struct{ name, body string }{
		{"malformed", `{"updates":`},
		{"empty", `{"updates":[]}`},
		{"oversized", string(oversized)},
	} {
		resp, err := http.Post(ts.URL+"/v1/session/"+ids[0]+"/update", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s batch: status %d, want 400: %s", tc.name, resp.StatusCode, body)
		}
	}
	if got := d.rehydrations.Load(); got != before {
		t.Fatalf("refused batches rehydrated the session: rehydrations %d → %d", before, got)
	}
	if cold.resident.Load() {
		t.Fatal("refused batches left the passivated session resident")
	}
}

// TestThousandSessionsBoundedResidency is the passivation acceptance pin:
// a daemon with the default limits holds 1000 durable sessions while
// never keeping more than -max-resident (64) of them in memory, keeps
// serving all of them transparently, and reboots over the same data dir
// into the same bounded shape via lazy recovery.
func TestThousandSessionsBoundedResidency(t *testing.T) {
	const nSessions = 1000
	dataDir := t.TempDir()
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir})
	if got := d.maxResidentLimit(); got != 64 {
		t.Fatalf("default max-resident = %d, want 64", got)
	}
	if got := d.maxSessionsLimit(); got != 4096 {
		t.Fatalf("default max-sessions with a data dir = %d, want 4096", got)
	}

	ids := make([]string, 0, nSessions)
	for i := 0; i < nSessions; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.SessionID)
		// The bound holds throughout the fill, not just at the end.
		if i%100 == 99 {
			if r := d.residentCount.Load(); r > 64 {
				t.Fatalf("after %d creates: %d resident, want <= 64", i+1, r)
			}
		}
	}
	if got := d.sessionCount(); got != nSessions {
		t.Fatalf("registry holds %d sessions, want %d", got, nSessions)
	}
	if r := d.residentCount.Load(); r > 64 {
		t.Fatalf("%d resident after fill, want <= 64", r)
	}
	if p := d.passivations.Load(); p < nSessions-64 {
		t.Fatalf("passivations = %d, want >= %d", p, nSessions-64)
	}

	// The stats surface reports the same shape.
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != nSessions || stats.SessionsResident > 64 {
		t.Fatalf("stats sessions=%d resident=%d, want %d/<=64", stats.Sessions, stats.SessionsResident, nSessions)
	}

	// The first session created is long passivated; touching it rehydrates
	// transparently and the batch applies exactly as on a resident session.
	resp, body := postJSON(t, ts.URL+"/v1/session/"+ids[0]+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update passivated session: status %d: %s", resp.StatusCode, body)
	}
	if d.rehydrations.Load() == 0 {
		t.Fatal("update of a passivated session did not count a rehydration")
	}
	r, err = http.Get(ts.URL + "/v1/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Seq != 1 || !sr.Verified {
		t.Fatalf("rehydrated session: seq=%d verified=%v, want 1/true", sr.Seq, sr.Verified)
	}
	if rc := d.residentCount.Load(); rc > 64 {
		t.Fatalf("%d resident after rehydration, want <= 64", rc)
	}

	// Reboot over the same data dir: lazy recovery registers all 1000
	// (eagerly loading at most 64) and a never-loaded session still serves.
	ts.Close()
	d.close()
	ts2, d2, crash2 := startDiskDaemon(t, dataDir)
	defer crash2()
	if got := d2.sessionCount(); got != nSessions {
		t.Fatalf("recovered registry holds %d sessions, want %d", got, nSessions)
	}
	if rc := d2.residentCount.Load(); rc > 64 {
		t.Fatalf("%d resident after recovery, want <= 64", rc)
	}
	r, err = http.Get(ts2.URL + "/v1/session/" + ids[nSessions-1])
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("adopted session after reboot: status %d: %s", r.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Verified {
		t.Fatal("adopted session served an unverified coloring")
	}
}

// TestPassivatedSessionTransparentAccess drives a tiny residency limit and
// checks every session keeps answering correctly as it cycles in and out
// of memory.
func TestPassivatedSessionTransparentAccess(t *testing.T) {
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: t.TempDir(), maxResident: 2})
	const n = 6
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(8))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.SessionID)
	}
	// Distinct chords of the 8-cycle, so every inserted edge is fresh.
	var chords []distec.Update
	for u := 0; u < 8; u++ {
		for v := u + 2; v < 8; v++ {
			if u == 0 && v == 7 {
				continue // cycle edge
			}
			chords = append(chords, distec.Update{Op: distec.InsertEdge, U: u, V: v})
		}
	}
	// Round-robin updates force constant rehydration; every batch must
	// apply with a verified coloring.
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			resp, body := postJSON(t, ts.URL+"/v1/session/"+id+"/update", updateRequest{
				Updates: []distec.Update{chords[round]},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d session %d: status %d: %s", round, i, resp.StatusCode, body)
			}
			var ur updateResponse
			if err := json.Unmarshal(body, &ur); err != nil {
				t.Fatal(err)
			}
			if !ur.Verified {
				t.Fatalf("round %d session %d: unverified coloring after rehydrated batch", round, i)
			}
			if rc := d.residentCount.Load(); rc > 2 {
				t.Fatalf("round %d session %d: %d resident, want <= 2", round, i, rc)
			}
		}
	}
	if d.rehydrations.Load() == 0 || d.passivations.Load() == 0 {
		t.Fatalf("rehydrations=%d passivations=%d, want both > 0",
			d.rehydrations.Load(), d.passivations.Load())
	}
	// Sequence numbers survived the churn: each session saw exactly 3
	// batches.
	for i, id := range ids {
		r, err := http.Get(ts.URL + "/v1/session/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Seq != 3 {
			t.Fatalf("session %d: seq %d, want 3", i, sr.Seq)
		}
	}
}

// TestPassivatedSessionDelete checks a session deleted while passivated
// releases its files and answers 404 afterwards — the dropped flag closes
// the delete-vs-rehydrate race.
func TestPassivatedSessionDelete(t *testing.T) {
	dataDir := t.TempDir()
	ts, d, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1})
	ids := createCycleSessions(t, ts.URL, 2)
	if d.residentCount.Load() != 1 {
		t.Fatalf("%d resident, want 1", d.residentCount.Load())
	}
	// ids[0] is the passivated one (LRU). Delete it cold.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+ids[0], nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("delete passivated session: status %d", r.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dataDir, ids[0])); !os.IsNotExist(err) {
		t.Fatalf("session dir survived delete: %v", err)
	}
	r, err = http.Get(ts.URL + "/v1/session/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session answered %d, want 404", r.StatusCode)
	}
	// The survivor still works.
	resp, body := postJSON(t, ts.URL+"/v1/session/"+ids[1]+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving session update: status %d: %s", resp.StatusCode, body)
	}
}

// TestRehydrationHonorsCallerContext pins the context threading through
// acquire → openSession → distec.RestoreDynamic: a caller that has already
// given up must not pay for (or pin the session lock through) a full
// replay, while a live caller still rehydrates transparently.
func TestRehydrationHonorsCallerContext(t *testing.T) {
	dataDir := t.TempDir()
	ts, srv, _ := newTestServerCfg(t, daemonConfig{dataDir: dataDir, maxResident: 1})
	resp, body := postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// One journaled batch so the passivated session has records to replay.
	resp, body = postJSON(t, ts.URL+"/v1/session/"+sr.SessionID+"/update", updateRequest{
		Updates: []distec.Update{{Op: distec.InsertEdge, U: 0, V: 2}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}
	// A second session evicts the first (maxResident: 1).
	resp, body = postJSON(t, ts.URL+"/v1/session", sessionRequest{Graph: graphToSpec(distec.Cycle(4))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create second: status %d: %s", resp.StatusCode, body)
	}
	sess, ok := srv.session(sr.SessionID)
	if !ok {
		t.Fatalf("session %s gone from registry", sr.SessionID)
	}
	if sess.resident.Load() {
		t.Fatal("first session still resident; passivation did not trigger")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.acquire(ctx, sess); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if sess.resident.Load() {
		t.Fatal("aborted rehydration left the session marked resident")
	}
	// A live caller rehydrates through the same path.
	d, err := srv.acquire(context.Background(), sess)
	if err != nil {
		t.Fatalf("acquire after aborted rehydration: %v", err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("rehydrated coloring invalid: %v", err)
	}
}
