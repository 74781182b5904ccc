// Command e2ebench is the repository's end-to-end benchmark: one process
// that solves in-process, serves over HTTP and churns durable sessions, and
// prints every metric BENCHMARK.json names on its last line of output.
//
//	bash e2ebench/run.sh --workload d8 --seed 1 --seconds 40 --trace 0
//
// run.sh builds this command and the edgecolord daemon from the working
// tree, then runs it from the repository root. The workloads differ only in
// the Δ of the solve graph; a run of either goes through the same phases:
//
//   - set-up: generate the inputs, boot edgecolord, create two sessions.
//   - serve: open loops at fixed rates against POST /v1/color (cache misses
//     mixed with cache hits, then large fan-out jobs on their own), then a
//     saturation probe for capacity.
//   - solve: distec.ColorEdges (BKO) on RandomRegular(n, Δ) with about 25k
//     edges, on the sequential engine and on the sharded engine with one
//     shard per core. Same edge count, Δ = 8 or 64: the paper's axis.
//   - churn: two durable Vizing sessions (palette Δ+1) driven closed-loop
//     in turns by one controller, with update batches and reads; after
//     each of a few segments the daemon is SIGKILLed and restarted on the
//     same data dir.
//
// Every solve, response and recovered session is verified. With --trace 0
// the run prints the end-to-end metrics; with --trace 1 it also solves
// through a span-recording engine wrapper and prints the per-layer metrics
// instead. METRICS.md maps each per-layer metric to the end-to-end metric
// it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config fixes one workload's inputs and the run's time budget. Only
// seed varies between runs of a workload.
type config struct {
	name string
	n, d int // the solve graph is RandomRegular(n, d)
	// serve: miss bodies rotate through more distinct graphs than the
	// daemon's 32-entry result cache holds; large bodies exceed the pool's
	// 4096-entity small-job threshold, so they fan out across lanes.
	missN, missD, missBodies    int
	largeN, largeD, largeBodies int
	rate                        float64 // fixed-rate mix of misses and hits, requests/s
	hitShare                    float64 // share of hits in the mix
	largeRate                   float64 // large requests/s, sent on their own
	// churn: two sessions on RandomRegular(churnN, churnD)
	churnN, churnD   int
	batch, readEvery int
	churnPerSecond   int // updates per session and second of --seconds
	// run
	rounds  int // each round serves, solves, churns, restarts and sets up once more
	seconds time.Duration
	trace   bool
	seed    uint64
	daemon  string // edgecolord binary
	work    string // directory for the daemon's data and log
}

// workloads are the named Δ regimes of the solve phase: the same edge
// count at Δ = 8 and Δ = 64. Serve and churn are the same in both, so
// every run reports every metric. (Churn stays at Δ = 8: a Vizing Δ+1
// session at Δ = 64 takes the solver repair tier on most inserts, which
// ran at about 50 updates/s and made recovery replay grow to seconds.)
var workloads = map[string]config{
	"d8":  withDaemon(config{name: "d8", n: 6250, d: 8}),
	"d64": withDaemon(config{name: "d64", n: 800, d: 64}),
}

// runLimit bounds one run of at most 60 measured seconds after the build,
// so that it ends (with an error) within three minutes whatever the daemon
// does.
const runLimit = 150 * time.Second

func withDaemon(c config) config {
	c.missN, c.missD, c.missBodies = 128, 6, 64
	c.largeN, c.largeD, c.largeBodies = 1500, 8, 8
	c.rate, c.hitShare, c.largeRate = 60, 0.3, 3
	c.churnN, c.churnD = 6250, 8
	c.batch, c.readEvery, c.churnPerSecond = 8, 16, 200
	c.rounds = 4
	return c
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: d8 or d64")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 40, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1: print per-layer metrics from a traced run")
		daemon   = flag.String("daemon", "", "edgecolord binary built from this tree")
		work     = flag.String("work", ".bench_build", "directory for run data (inside the checkout)")
	)
	flag.Parse()
	cfg, ok := workloads[*workload]
	if !ok || *seconds < 1 || *seconds > 60 || (*traced != 0 && *traced != 1) || *daemon == "" {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload d8|d64, --seconds 1..60, --trace 0|1 and --daemon")
		flag.Usage()
		os.Exit(2)
	}
	cfg.seed = *seed
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.trace = *traced == 1
	cfg.daemon = *daemon
	cfg.work = *work

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// A daemon that stops answering must not hold the run past its limit:
	// every request carries this deadline.
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	res, err := run(ctx, cfg)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	line, err := res.line(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	host, err := json.Marshal(map[string]any{"host": res.host})
	if err == nil {
		fmt.Println(string(host))
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// Every metric the benchmark reports, with its unit. endToEnd is printed
// by untraced runs and perLayer by traced ones; BENCHMARK.json lists the
// same names and units.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"solve_s", "s"}, {"solve_sharded_s", "s"},
		{"solve_alloc_mb", "MB"}, {"solve_rounds", "rounds"},
		{"miss_p50_ms", "ms"}, {"miss_p75_ms", "ms"}, {"hit_p50_ms", "ms"},
		{"large_p50_ms", "ms"}, {"capacity_rps", "req/s"},
		{"churn_updates_per_s", "updates/s"}, {"churn_p75_ms", "ms"},
		{"read_p50_ms", "ms"}, {"recover_s", "s"},
	}
	perLayer = []metricDef{
		{"core.self_s", "s"}, {"core.class_instances", "count"},
		{"core.chain_levels", "count"}, {"core.deferred", "count"},
		{"linial.s", "s"}, {"linial.messages", "count"},
		{"defective.s", "s"}, {"defective.rounds", "rounds"},
		{"chain.s", "s"}, {"base.s", "s"}, {"base.runs", "count"},
		{"local.runs", "count"}, {"local.messages", "count"},
		{"local.rounds_run", "rounds"}, {"local.round_coverage", "ratio"},
		{"sharded.s", "s"}, {"sharded.speedup", "ratio"},
		{"verify.s", "s"}, {"trace.overhead", "ratio"}, {"graph.gen_s", "s"},
		{"serve.job_ms", "ms"}, {"cache.hit_ratio", "ratio"},
		{"serve.admission_rejected", "count"}, {"serve.sequential_runs", "count"},
		{"serve.sliced_runs", "count"}, {"serve.fanout_runs", "count"},
		{"serve.http_ms.miss", "ms"}, {"serve.http_ms.hit", "ms"},
		{"serve.http_ms.large", "ms"}, {"serve.miss_p90_ms", "ms"},
		{"serve.miss_p99_ms", "ms"}, {"http.requests", "count"},
		{"http.errors", "count"}, {"gen.late_p99_ms", "ms"},
		{"dynamic.greedy", "count/1k"}, {"dynamic.repairs", "count/1k"},
		{"dynamic.augments", "count/1k"}, {"session.update_ms", "ms"},
		{"session.batch_p99_ms", "ms"},
		{"persist.wal_appends", "count"}, {"persist.wal_bytes", "B/append"},
		{"persist.compactions", "count"}, {"persist.snapshot_writes", "count"},
		{"persist.recovered_records", "count"}, {"session.recovery_s", "s"},
		{"failed_ratio", "ratio"},
	}
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is everything one run measured.
type result struct {
	host map[string]any
	vals map[string]float64
	t    tally
}

// line reports the named metrics; each must have been measured.
func (r *result) line(names []metricDef) (resultLine, error) {
	l := resultLine{Correct: r.t.failed == 0, Attempted: r.t.attempted, Failed: r.t.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := r.vals[m.name]
		if !ok {
			return l, fmt.Errorf("metric %s was not measured", m.name)
		}
		l.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if l.Attempted == 0 {
		return l, errors.New("no operation was attempted")
	}
	return l, nil
}

// run executes one benchmark run. The phases are interleaved in
// cfg.rounds rounds, so that each metric samples the whole run rather than
// one stretch of it; the host's speed drifts over tens of seconds.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.work, err = filepath.Abs(dir); err != nil {
		return nil, err
	}

	r := &result{vals: map[string]float64{}}
	streams := churnStreams(cfg)
	var setups, gens []float64
	e, err := setUp(ctx, cfg, streams, 0, &setups, &gens)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r.host = fingerprint(ctx, cfg, e)

	s := &solver{cfg: cfg, g: e.solveG, shards: e.nproc, phase: map[string][]float64{}}
	l := newLoader(cfg, e)
	defer l.client.CloseIdleConnections()
	c := newChurner(cfg, e)
	per := cfg.seconds / time.Duration(cfg.rounds)
	for round := 0; round < cfg.rounds; round++ {
		// Serving first keeps the fixed-rate windows away from the solves,
		// whose garbage and page faults would otherwise spill into them.
		if err := l.round(ctx, round, per*25/100, per*20/100, per*10/100, &r.t); err != nil {
			return nil, err
		}
		if err := s.round(round, per*20/100, &r.t); err != nil {
			return nil, err
		}
		if err := c.segment(ctx, round, &r.t); err != nil {
			return nil, err
		}
		extra, err := setUp(ctx, cfg, streams, round+1, &setups, &gens)
		if err != nil {
			return nil, err
		}
		extra.close()
	}
	s.report(r.vals)
	if err := l.report(r.vals); err != nil {
		return nil, err
	}
	if err := c.report(r.vals); err != nil {
		return nil, err
	}
	r.vals["setup_s"] = median(setups)
	r.vals["graph.gen_s"] = median(gens)
	r.vals["failed_ratio"] = float64(r.t.failed) / float64(max(r.t.attempted, 1))
	if r.t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: first failed check:", r.t.firstErr)
	}
	return r, nil
}
