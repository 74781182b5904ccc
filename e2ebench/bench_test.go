package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// tiny shrinks a workload so that a traced run takes a few seconds while
// still taking every path: more miss bodies than the cache holds, large
// bodies above the small-job threshold, churn with kills and restarts.
func tiny(c config) config {
	c.n = max(c.n/25, 4*c.d)
	c.missBodies = 40
	c.largeN, c.largeBodies = 1100, 2
	c.rate, c.largeRate = 40, 4
	c.churnN, c.churnPerSecond = 400, 50
	c.rounds = 2
	c.seconds = 4 * time.Second
	c.trace = true
	return c
}

// TestWorkloadsReportEveryMetric runs every workload of BENCHMARK.json at
// tiny scale and checks that each metric it names is measured, with its
// unit, and that every check passed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(endToEnd, perLayer...) {
		units[m.name] = m.unit
	}
	for _, want := range append(b.EndToEnd, b.PerLayer...) {
		if units[want.Name] != want.Unit {
			t.Errorf("BENCHMARK.json metric %s [%s]: benchmark reports unit %q", want.Name, want.Unit, units[want.Name])
		}
	}
	if len(units) != len(b.EndToEnd)+len(b.PerLayer) {
		t.Errorf("benchmark reports %d metrics, BENCHMARK.json names %d", len(units), len(b.EndToEnd)+len(b.PerLayer))
	}

	work := t.TempDir()
	daemon := filepath.Join(work, "edgecolord")
	build := exec.Command("go", "build", "-o", daemon, "../cmd/edgecolord")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build edgecolord: %v\n%s", err, out)
	}
	for _, w := range b.Workloads {
		cfg, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the benchmark", w.Name)
			continue
		}
		cfg = tiny(cfg)
		cfg.seed, cfg.daemon, cfg.work = 7, daemon, work
		res, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, names := range [][]metricDef{endToEnd, perLayer} {
			line, err := res.line(names)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if !line.Correct || line.Failed != 0 {
				t.Fatalf("%s: %d of %d operations failed: %v", w.Name, line.Failed, line.Attempted, res.t.firstErr)
			}
		}
		if got := res.vals["core.self_s"] + res.vals["linial.s"] + res.vals["defective.s"] + res.vals["chain.s"] + res.vals["base.s"]; got <= 0 {
			t.Errorf("%s: traced solve accounts for %v s", w.Name, got)
		}
	}
}
