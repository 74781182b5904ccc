package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	mix, err := parseClassMix("color=4, cached=3,churn=0,storm=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []classWeight{{0, 4}, {1, 3}, {3, 1}} // churn=0 dropped
	if len(mix) != len(want) {
		t.Fatalf("mix %v, want %v", mix, want)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Fatalf("mix[%d] = %v, want %v", i, mix[i], want[i])
		}
	}
	for _, bad := range []string{"", "color", "nope=3", "color=-1", "color=0"} {
		if _, err := parseClassMix(bad); err == nil {
			t.Errorf("parseClassMix(%q): no error", bad)
		}
	}
}

func TestParseSLOs(t *testing.T) {
	slos, err := parseSLOs("color:p99=500ms, churn:p999=1s")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 2 || slos[0] != (slo{"color", "p99", 500}) || slos[1] != (slo{"churn", "p999", 1000}) {
		t.Fatalf("slos = %+v", slos)
	}
	if got, err := parseSLOs("  "); err != nil || got != nil {
		t.Fatalf("empty spec: %v, %v", got, err)
	}
	for _, bad := range []string{"color:p98=1s", "nope:p99=1s", "color=1s", "color:p99=zebra", "color:p99=-1s"} {
		if _, err := parseSLOs(bad); err == nil {
			t.Errorf("parseSLOs(%q): no error", bad)
		}
	}
}

// TestWRRInterleaves checks the smooth weighted round-robin hits exact
// proportions over one period and never emits a class's quota as one burst.
func TestWRRInterleaves(t *testing.T) {
	mix, err := parseClassMix("color=3,cached=1")
	if err != nil {
		t.Fatal(err)
	}
	w := newWRR(mix)
	var seq []int
	counts := map[int]int{}
	for i := 0; i < 8; i++ {
		c := w.next()
		seq = append(seq, c)
		counts[c]++
	}
	if counts[0] != 6 || counts[1] != 2 {
		t.Fatalf("counts %v over two periods, want 6/2 (seq %v)", counts, seq)
	}
	// Smoothness: the singleton class appears once per period of 4, not
	// back to back at the period boundary.
	for i := 1; i < len(seq); i++ {
		if seq[i] == 1 && seq[i-1] == 1 {
			t.Fatalf("class 1 emitted back to back: %v", seq)
		}
	}
}

func TestQuantile(t *testing.T) {
	lats := make([]time.Duration, 1000)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}} {
		if got := quantile(lats, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// stubDaemon is a minimal edgecolord wire-format double: instant answers,
// optional injected latency/failures, so the open-loop machinery is
// testable without the real server.
func stubDaemon(t *testing.T, failColor *atomic.Bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var sessions atomic.Int64
	var nextID atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/color", func(w http.ResponseWriter, r *http.Request) {
		if failColor != nil && failColor.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"colors": []int{}})
	})
	mux.HandleFunc("POST /v1/session", func(w http.ResponseWriter, r *http.Request) {
		sessions.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"session_id": fmt.Sprint(nextID.Add(1))})
	})
	mux.HandleFunc("POST /v1/session/{id}/update", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"results": []any{}})
	})
	mux.HandleFunc("DELETE /v1/session/{id}", func(w http.ResponseWriter, r *http.Request) {
		sessions.Add(-1)
		json.NewEncoder(w).Encode(map[string]bool{"deleted": true})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &sessions
}

// TestOpenLoopRun drives the full pipeline against the stub: the schedule
// must fire the configured number of requests, split per the mix, with no
// errors, and the storm class must leave no sessions behind.
func TestOpenLoopRun(t *testing.T) {
	ts, sessions := stubDaemon(t, nil)
	gen := newWorkload(ts.URL, 32, 4, 8, 5*time.Second)
	if err := gen.prepare(); err != nil {
		t.Fatal(err)
	}
	defer gen.cleanup()
	mix, _ := parseClassMix("color=2,cached=1,churn=1,storm=1")
	rep := run(gen, mix, 500, 400*time.Millisecond)
	if rep.Requests != 200 {
		t.Fatalf("scheduled %d requests, want 200", rep.Requests)
	}
	if errs := rep.totalErrors(); errs != 0 {
		t.Fatalf("%d errors: %+v", errs, rep.Classes)
	}
	if got := rep.Classes["color"].Count; got != 80 {
		t.Errorf("color count %d, want 80 (weight 2 of 5)", got)
	}
	for _, name := range classes {
		cr := rep.Classes[name]
		if cr == nil || cr.Count == 0 {
			t.Errorf("class %s saw no traffic", name)
		} else if cr.P50ms <= 0 || cr.P999ms < cr.P50ms {
			t.Errorf("class %s has nonsense quantiles: %+v", name, cr)
		}
	}
	// storm creates paired with deletes; only the churn session may remain
	// (cleanup not yet run at this point).
	if n := sessions.Load(); n != 1 {
		t.Errorf("%d sessions left on daemon, want 1 (the churn session)", n)
	}
	if len(rep.checkSLOs([]slo{{"color", "p99", 60_000}})) != 0 {
		t.Error("lenient SLO reported violated")
	}
	if v := rep.checkSLOs([]slo{{"color", "p999", 1e-9}}); len(v) != 1 {
		t.Error("impossible SLO not reported")
	}
	// An SLO against a class with no traffic must violate, not pass.
	if v := rep.checkSLOs([]slo{{"color", "p99", 1000}, {"cached", "p99", 1000}}); len(v) != 0 {
		t.Errorf("unexpected violations: %+v", v)
	}
	empty := &report{Classes: map[string]*classReport{}}
	if v := empty.checkSLOs([]slo{{"color", "p99", 1000}}); len(v) != 1 {
		t.Error("SLO on silent class must violate")
	}
}

// TestErrorsAreCounted: failed requests land in the error column (and the
// exit-1 path), not in the latency population.
func TestErrorsAreCounted(t *testing.T) {
	var failColor atomic.Bool
	ts, _ := stubDaemon(t, &failColor)
	gen := newWorkload(ts.URL, 32, 4, 4, 5*time.Second)
	if err := gen.prepare(); err != nil {
		t.Fatal(err)
	}
	defer gen.cleanup()
	failColor.Store(true)
	mix, _ := parseClassMix("color=1")
	rep := run(gen, mix, 200, 100*time.Millisecond)
	if rep.totalErrors() != 20 {
		t.Fatalf("errors %d, want 20", rep.totalErrors())
	}
	if rep.Classes["color"].Count != 0 {
		t.Fatalf("failed requests counted as latencies: %+v", rep.Classes["color"])
	}
}

// TestReportOutput covers the human table, the violation lines, and the
// -bench-out JSON round trip.
func TestReportOutput(t *testing.T) {
	rep := &report{
		RatePerS: 100, DurationS: 2, Requests: 200, AchievedPerS: 99.5,
		SchedulerLate: 3, Mix: "color=1",
		Classes: map[string]*classReport{
			"color": {Count: 200, Errors: 2, P50ms: 5, P99ms: 20, P999ms: 30, MaxMs: 40},
		},
	}
	violations := rep.checkSLOs([]slo{{"color", "p99", 10}, {"storm", "p50", 1}})
	if len(violations) != 2 {
		t.Fatalf("violations %+v", violations)
	}
	var buf strings.Builder
	rep.print(&buf, violations)
	out := buf.String()
	for _, want := range []string{
		"achieved 99.5/s", "scheduler late on 3 slots",
		"SLO VIOLATED: color:p99 = 20.00ms > 10.00ms",
		"SLO VIOLATED: storm:p50 — class saw no traffic",
		"ERRORS: 2 requests failed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.writeJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmark string `json:"benchmark"`
		Date      string `json:"date"`
		Requests  int    `json:"requests"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Benchmark == "" || doc.Date == "" || doc.Requests != 200 {
		t.Fatalf("bench doc %+v", doc)
	}
	if err := rep.writeJSON(filepath.Join(path, "nope", "bench.json")); err == nil {
		t.Error("writeJSON into a file-as-dir path: no error")
	}
}

// TestPrepareFailure: a daemon that rejects session creation must surface
// through prepare with the status and body, not hang or succeed.
func TestPrepareFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "registry full", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	gen := newWorkload(ts.URL, 16, 2, 2, time.Second)
	err := gen.prepare()
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("prepare error = %v, want 503", err)
	}
	gen.cleanup() // no session: must be a no-op, not a panic
}

func TestParseArgsDefaults(t *testing.T) {
	cfg, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.rate != 200 || cfg.duration != 10*time.Second || cfg.graphN != 256 || cfg.graphD != 8 || cfg.bodies != 64 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if len(cfg.mix) == 0 {
		t.Fatal("default mix not parsed")
	}
	if len(cfg.slos) != 0 {
		t.Fatalf("default slos = %v, want none", cfg.slos)
	}
}

// TestParseArgsRejectsBadValues pins the validation sweep: every
// malformed flag or out-of-range numeric value is a parse error (which
// main turns into exit 2), never a silent zero-request run.
func TestParseArgsRejectsBadValues(t *testing.T) {
	bad := [][]string{
		{"-bogus"},
		{"extra", "operand"},
		{"-rate", "0"},
		{"-rate", "-5"},
		{"-duration", "0s"},
		{"-duration", "-1s"},
		{"-n", "1"},
		{"-n", "0"},
		{"-d", "0"},
		{"-n", "8", "-d", "8"},
		{"-bodies", "0"},
		{"-bodies", "-3"},
		{"-timeout", "0s"},
		{"-timeout", "-2s"},
		{"-mix", "color"},
		{"-mix", "nope=3"},
		{"-slo", "color:p98=1ms"},
	}
	for _, args := range bad {
		if cfg, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q) accepted: %+v", args, cfg)
		}
	}
}

func TestParseArgsOverrides(t *testing.T) {
	cfg, err := parseArgs([]string{
		"-addr", "http://x:1", "-rate", "50", "-duration", "2s",
		"-n", "32", "-d", "4", "-bodies", "3", "-timeout", "1s",
		"-mix", "cached=1", "-slo", "cached:p50=100ms", "-bench-out", "out.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "http://x:1" || cfg.rate != 50 || cfg.duration != 2*time.Second ||
		cfg.graphN != 32 || cfg.graphD != 4 || cfg.bodies != 3 ||
		cfg.timeout != time.Second || cfg.benchOut != "out.json" {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if len(cfg.mix) != 1 || classes[cfg.mix[0].class] != "cached" {
		t.Fatalf("mix = %v", cfg.mix)
	}
	if len(cfg.slos) != 1 || cfg.slos[0].class != "cached" || cfg.slos[0].quantile != "p50" {
		t.Fatalf("slos = %v", cfg.slos)
	}
}
