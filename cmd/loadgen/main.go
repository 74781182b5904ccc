// Command loadgen drives an edgecolord daemon with open-loop load — a
// fixed arrival rate, scheduled in advance, that does NOT slow down when
// the server does — and reports latency quantiles per traffic class
// against declared SLOs.
//
// Open loop is the point: a closed-loop client (fire, wait, fire again)
// self-throttles under congestion, so its latencies hide exactly the
// overload it should be measuring (coordinated omission). Here every
// request has an arrival time fixed before the run starts, latency is
// measured from that scheduled arrival — queueing delay included, even
// when the client fell behind — and a saturated daemon shows up as the
// p99/p999 blowup it really is.
//
// Usage:
//
//	edgecolord -listen :8080 &
//	loadgen -addr http://localhost:8080 -rate 200 -duration 10s
//	loadgen -rate 500 -mix color=4,cached=4,churn=1,storm=1 \
//	        -slo color:p99=250ms,cached:p99=50ms -bench-out BENCH_serve.json
//
// Traffic classes (weights set by -mix):
//
//	color:  one-shot POST /v1/color over a rotating set of distinct
//	        graphs — cache-miss traffic that exercises the full pipeline
//	cached: the identical request every time — cache-hit epochs
//	churn:  update batches against one long-lived dynamic session
//	        (delete+reinsert of a rotating edge)
//	storm:  session create immediately followed by delete — registry
//	        and persistence lifecycle pressure
//
// Exit status: 0 when every request succeeded and every SLO held;
// 1 on request errors or SLO violations; 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is the validated result of flag parsing, separated from main so
// the validation sweep is testable without spawning the process.
type config struct {
	addr     string
	rate     float64
	duration time.Duration
	mixSpec  string
	sloSpec  string
	graphN   int
	graphD   int
	bodies   int
	timeout  time.Duration
	benchOut string
	mix      []classWeight
	slos     []slo
}

// parseArgs parses and validates the command line. Every returned error
// is a usage error (exit 2): malformed flags, malformed -mix/-slo specs,
// or non-positive numeric parameters that would otherwise surface as a
// zero-request run or a divide-by-zero deep in the scheduler.
func parseArgs(args []string) (*config, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", "http://localhost:8080", "daemon base URL")
	fs.Float64Var(&cfg.rate, "rate", 200, "total arrival rate, requests per second (open loop)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "run length")
	fs.StringVar(&cfg.mixSpec, "mix", "color=4,cached=3,churn=2,storm=1", "traffic mix as class=weight, comma-separated (weight 0 disables a class)")
	fs.StringVar(&cfg.sloSpec, "slo", "", "SLOs as class:quantile=duration, comma-separated (e.g. color:p99=500ms,churn:p999=1s)")
	fs.IntVar(&cfg.graphN, "n", 256, "node count of the workload graphs")
	fs.IntVar(&cfg.graphD, "d", 8, "degree of the workload graphs")
	fs.IntVar(&cfg.bodies, "bodies", 64, "distinct rotating graphs for the color class (more than the daemon cache holds, so they stay misses)")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request client timeout")
	fs.StringVar(&cfg.benchOut, "bench-out", "", "write the machine-readable run report to this JSON file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	var err error
	if cfg.mix, err = parseClassMix(cfg.mixSpec); err != nil {
		return nil, err
	}
	if cfg.slos, err = parseSLOs(cfg.sloSpec); err != nil {
		return nil, err
	}
	if cfg.rate <= 0 || cfg.duration <= 0 {
		return nil, fmt.Errorf("-rate and -duration must be positive")
	}
	if cfg.graphN < 2 || cfg.graphD < 1 || cfg.graphD >= cfg.graphN {
		return nil, fmt.Errorf("-n and -d must describe a real graph (need n ≥ 2 and 1 ≤ d < n, got n=%d d=%d)", cfg.graphN, cfg.graphD)
	}
	if cfg.bodies < 1 {
		return nil, fmt.Errorf("-bodies must be at least 1, got %d", cfg.bodies)
	}
	if cfg.timeout <= 0 {
		return nil, fmt.Errorf("-timeout must be positive, got %v", cfg.timeout)
	}
	return cfg, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fail(2, err)
	}

	gen := newWorkload(cfg.addr, cfg.graphN, cfg.graphD, cfg.bodies, cfg.timeout)
	if err := gen.prepare(); err != nil {
		fail(1, fmt.Errorf("preparing workload (is the daemon up at %s?): %w", cfg.addr, err))
	}
	defer gen.cleanup()

	// Bracket the run with /metrics scrapes (after prepare, before
	// cleanup) so the daemon-side deltas cover exactly the scheduled
	// load, not the workload setup or teardown. A failed scrape degrades
	// to the client-side-only report rather than failing the run.
	before, scrapeErr := scrapeMetrics(gen.client, cfg.addr)
	rep := run(gen, cfg.mix, cfg.rate, cfg.duration)
	rep.Mix, rep.SLOSpec = cfg.mixSpec, cfg.sloSpec
	if scrapeErr == nil {
		if after, err := scrapeMetrics(gen.client, cfg.addr); err == nil {
			rep.Daemon = diffMetrics(before, after)
		}
	}
	violations := rep.checkSLOs(cfg.slos)
	rep.print(os.Stdout, violations)
	if cfg.benchOut != "" {
		if err := rep.writeJSON(cfg.benchOut); err != nil {
			fail(1, err)
		}
	}
	if len(violations) > 0 || rep.totalErrors() > 0 {
		os.Exit(1)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(code)
}

// run fires requests at the fixed arrival schedule and aggregates samples.
func run(gen *workload, mix []classWeight, rate float64, duration time.Duration) *report {
	interval := float64(time.Second) / rate
	total := int(float64(duration) / interval)
	picker := newWRR(mix)
	var wg sync.WaitGroup
	cols := make([]*collector, len(classes))
	for i := range cols {
		cols[i] = &collector{}
	}
	var late atomic.Int64
	start := time.Now()
	for i := 0; i < total; i++ {
		arrival := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		} else if d < -time.Duration(interval) {
			// The scheduler itself fell behind by more than one slot
			// (dispatch overhead, not server latency): note it — latencies
			// are still measured from the scheduled arrival, so the report
			// stays honest either way.
			late.Add(1)
		}
		class := picker.next()
		wg.Add(1)
		go func(class int, arrival time.Time) {
			defer wg.Done()
			err := gen.fire(class)
			cols[class].add(time.Since(arrival), err)
		}(class, arrival)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		RatePerS:      rate,
		DurationS:     duration.Seconds(),
		Requests:      total,
		AchievedPerS:  float64(total) / elapsed.Seconds(),
		SchedulerLate: late.Load(),
		Classes:       map[string]*classReport{},
	}
	for i, c := range cols {
		if cr := c.summarize(); cr != nil {
			rep.Classes[classes[i]] = cr
		}
	}
	return rep
}

// collector accumulates one class's samples under a lock; summarize sorts
// once at the end.
type collector struct {
	mu   sync.Mutex
	lats []time.Duration
	errs int
}

func (c *collector) add(lat time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.errs++
		return
	}
	c.lats = append(c.lats, lat)
}

func (c *collector) summarize() *classReport {
	if len(c.lats) == 0 && c.errs == 0 {
		return nil
	}
	sort.Slice(c.lats, func(i, j int) bool { return c.lats[i] < c.lats[j] })
	return &classReport{
		Count:  len(c.lats),
		Errors: c.errs,
		P50ms:  quantile(c.lats, 0.50),
		P99ms:  quantile(c.lats, 0.99),
		P999ms: quantile(c.lats, 0.999),
		MaxMs:  quantile(c.lats, 1),
	}
}

// quantile reads q from sorted lats in milliseconds (nearest-rank).
func quantile(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	idx := int(q*float64(len(lats))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return float64(lats[idx]) / float64(time.Millisecond)
}

// report is the run summary — printed for humans and written as the
// BENCH_serve.json payload with -bench-out.
type report struct {
	RatePerS      float64                 `json:"rate_per_s"`
	DurationS     float64                 `json:"duration_s"`
	Requests      int                     `json:"requests"`
	AchievedPerS  float64                 `json:"achieved_rate_per_s"`
	SchedulerLate int64                   `json:"scheduler_late_slots"`
	Mix           string                  `json:"mix"`
	SLOSpec       string                  `json:"slo,omitempty"`
	Classes       map[string]*classReport `json:"classes"`
	// Daemon holds the server-side counter deltas scraped from GET
	// /metrics around the run; nil when the scrape failed.
	Daemon *daemonReport `json:"daemon,omitempty"`
}

type classReport struct {
	Count  int     `json:"count"`
	Errors int     `json:"errors"`
	P50ms  float64 `json:"p50_ms"`
	P99ms  float64 `json:"p99_ms"`
	P999ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

type violation struct {
	class, quantile string
	got, want       float64 // milliseconds
}

// checkSLOs evaluates every declared SLO against the measured quantiles.
// An SLO on a class that saw no traffic is a violation too: a mix typo
// must not silently pass.
func (r *report) checkSLOs(slos []slo) []violation {
	var out []violation
	for _, s := range slos {
		cr := r.Classes[s.class]
		if cr == nil {
			out = append(out, violation{s.class, s.quantile, -1, s.wantMs})
			continue
		}
		got := map[string]float64{"p50": cr.P50ms, "p99": cr.P99ms, "p999": cr.P999ms}[s.quantile]
		if got > s.wantMs {
			out = append(out, violation{s.class, s.quantile, got, s.wantMs})
		}
	}
	return out
}

func (r *report) totalErrors() int {
	n := 0
	for _, c := range r.Classes {
		n += c.Errors
	}
	return n
}

func (r *report) print(w io.Writer, violations []violation) {
	fmt.Fprintf(w, "open-loop: %d requests scheduled at %.0f/s over %.1fs (achieved %.1f/s", r.Requests, r.RatePerS, r.DurationS, r.AchievedPerS)
	if r.SchedulerLate > 0 {
		fmt.Fprintf(w, ", scheduler late on %d slots", r.SchedulerLate)
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "%-8s %8s %7s %9s %9s %9s %9s\n", "class", "count", "errors", "p50", "p99", "p999", "max")
	for _, name := range classes {
		c := r.Classes[name]
		if c == nil {
			continue
		}
		fmt.Fprintf(w, "%-8s %8d %7d %8.2fms %8.2fms %8.2fms %8.2fms\n",
			name, c.Count, c.Errors, c.P50ms, c.P99ms, c.P999ms, c.MaxMs)
	}
	if r.Daemon != nil {
		r.Daemon.print(w)
	}
	for _, v := range violations {
		if v.got < 0 {
			fmt.Fprintf(w, "SLO VIOLATED: %s:%s — class saw no traffic\n", v.class, v.quantile)
		} else {
			fmt.Fprintf(w, "SLO VIOLATED: %s:%s = %.2fms > %.2fms\n", v.class, v.quantile, v.got, v.wantMs())
		}
	}
	if n := r.totalErrors(); n > 0 {
		fmt.Fprintf(w, "ERRORS: %d requests failed\n", n)
	}
}

func (v violation) wantMs() float64 { return v.want }

func (r *report) writeJSON(path string) error {
	doc := struct {
		Benchmark string `json:"benchmark"`
		Date      string `json:"date"`
		*report
	}{"loadgen open-loop SLO run", time.Now().UTC().Format("2006-01-02"), r}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
