package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/distec/distec"
)

// Request classes of the serve phase.
const (
	miss = iota
	hit
	large
	nClasses
)

var classNames = [nClasses]string{"miss", "hit", "large"}

// request is one scheduled POST /v1/color.
type request struct {
	class, body int
	due         time.Duration // send time, from the start of the loop
}

// outcome is what the generator saw for one request. Latency runs from
// the scheduled send (due), so a stalled daemon is charged for every
// request it delayed; late is how far behind schedule the send started.
type outcome struct {
	latency, late, service time.Duration
	daemonMS               float64 // the response's duration_ms
	colors                 []int
	err                    error
}

type colorReply struct {
	Colors     []int   `json:"colors"`
	Verified   bool    `json:"verified"`
	DurationMS float64 `json:"duration_ms"`
}

// loader drives the serve phase over the rounds of a run: the generator's
// client, the class rotation and everything measured so far.
type loader struct {
	cfg     config
	e       *env
	client  *http.Client
	workers int
	next    int           // requests scheduled so far, for the class pattern
	rot     [nClasses]int // next body per class
	lat     [nClasses]perRound
	httpMS  [nClasses][]float64
	late    []float64
	layer   map[string]float64 // /metrics deltas summed over the fixed windows
	served  int                // completions in the saturation probes
	probeS  float64            // and the probes' duration
}

func newLoader(cfg config, e *env) *loader {
	return &loader{
		cfg: cfg, e: e, workers: e.nproc, layer: map[string]float64{},
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, DisableCompression: true,
		}},
	}
}

// crossed reports whether a class taking share of the requests is due at
// request i: shares are spread evenly, so every run sees the same pattern.
func crossed(i int, share float64) bool {
	return int(float64(i+1)*share) > int(float64(i)*share)
}

// schedule lays out n requests at rate requests/s (all due at once for
// rate 0), continuing the class pattern and the body rotation.
func (l *loader) schedule(n int, rate float64, hitShare, largeShare float64) []request {
	out := make([]request, n)
	for i := range out {
		c := miss
		switch {
		case crossed(l.next, largeShare):
			c = large
		case crossed(l.next, hitShare):
			c = hit
		}
		l.next++
		b := l.rot[c]
		l.rot[c]++
		switch c {
		case miss:
			b %= len(l.e.miss)
		case large:
			b %= len(l.e.large)
		default:
			b = 0
		}
		out[i] = request{class: c, body: b}
		if rate > 0 {
			out[i].due = time.Duration(float64(i) / rate * float64(time.Second))
		}
	}
	return out
}

// openLoop sends sched from l.workers goroutines sharing one client. Each
// worker claims the next request, sleeps until it is due and sends it;
// when every worker is busy the next send starts late, which is the
// generator's backlog. No goroutine is started per request. Workers stop
// claiming at stop (0: never), leaving the rest of sched unsent; it
// returns the outcomes of the requests sent, a prefix of sched.
func (l *loader) openLoop(ctx context.Context, sched []request, stop time.Duration) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	url := l.e.d.base + "/v1/color"
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (stop == 0 || time.Since(start) < stop) {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				r := sched[i]
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				var reply colorReply
				err := postJSON(ctx, l.client, url, l.e.bodyOf(r).json, &reply)
				done := time.Since(start)
				if err == nil && !reply.Verified {
					err = errors.New("response verified=false")
				}
				out[i] = outcome{
					latency: done - r.due, late: sent - r.due, service: done - sent,
					daemonMS: reply.DurationMS, colors: reply.Colors, err: err,
				}
			}
		}()
	}
	wg.Wait()
	// Requests are claimed in order and every claimed one is sent, so the
	// sent requests are a prefix of sched.
	return out[:min(int(next.Load()), len(sched))]
}

func (e *env) bodyOf(r request) body {
	switch r.class {
	case miss:
		return e.miss[r.body]
	case large:
		return e.large[r.body]
	}
	return e.hit
}

// check re-verifies every response after the timed window and counts it.
func (e *env) check(sched []request, out []outcome, t *tally) {
	for i, o := range out {
		err := o.err
		if err == nil {
			err = distec.Verify(e.bodyOf(sched[i]).g, o.colors)
		}
		t.add(err)
	}
}

// round runs three open loops. The fixed-rate mix of misses and hits runs
// for mix. Large requests run alone at cfg.largeRate for large: a 6000-edge
// fan-out job holds both lanes for about 150 ms, and mixed in it would set
// the misses' tail by where it happened to land. Last, a saturation probe
// runs for probe: misses offered back to back on every connection, so the
// daemon's completion rate is the highest rate it sustains without a
// growing backlog.
func (l *loader) round(ctx context.Context, round int, mix, large, probe time.Duration, t *tally) error {
	sched := l.schedule(max(1, int(l.cfg.rate*mix.Seconds())), l.cfg.rate, l.cfg.hitShare, 0)
	if err := l.window(ctx, round, sched, t); err != nil {
		return err
	}
	sched = l.schedule(max(1, int(l.cfg.largeRate*large.Seconds())), l.cfg.largeRate, 0, 1)
	if err := l.window(ctx, round, sched, t); err != nil {
		return err
	}

	start := time.Now()
	sched = l.schedule(int(probeMaxRate*probe.Seconds()), 0, 0, 0)
	out := l.openLoop(ctx, sched, probe)
	l.probeS += time.Since(start).Seconds()
	for _, o := range out {
		if o.err == nil {
			l.served++
		}
	}
	l.e.check(sched, out, t)
	return ctx.Err()
}

// window sends one fixed-rate schedule and records its latencies and the
// daemon's counter deltas across it.
func (l *loader) window(ctx context.Context, round int, sched []request, t *tally) error {
	before, err := scrape(ctx, l.e.ctl, l.e.d.base)
	if err != nil {
		return err
	}
	out := l.openLoop(ctx, sched, 0)
	after, err := scrape(ctx, l.e.ctl, l.e.d.base)
	if err != nil {
		return err
	}
	for _, k := range serveSeries {
		l.layer[k] += delta(before, after, k)
	}
	for i, o := range out {
		c := sched[i].class
		l.lat[c].add(round, ms(o.latency))
		l.late = append(l.late, ms(o.late))
		if o.err == nil {
			l.httpMS[c] = append(l.httpMS[c], ms(o.service)-o.daemonMS)
		}
	}
	l.e.check(sched, out, t)
	return ctx.Err()
}

// probeMaxRate bounds the requests a saturation probe schedules per second;
// it is far above what one daemon serves, so the probe never runs dry.
const probeMaxRate = 5000

var serveSeries = []string{
	`distec_serve_job_seconds_sum{outcome="completed"}`, `distec_serve_job_seconds_count{outcome="completed"}`,
	"distec_cache_hits_total", "distec_cache_misses_total", "distec_serve_admission_rejected_total",
	`distec_serve_runs_total{route="sequential"}`, `distec_serve_runs_total{route="sliced"}`,
	`distec_serve_runs_total{route="fanout"}`, "distec_http_requests_total", "distec_http_errors_total",
}

// report sets the serve metrics.
func (l *loader) report(vals map[string]float64) error {
	for c := 0; c < nClasses; c++ {
		if len(l.lat[c]) == 0 {
			return fmt.Errorf("serve: no %s requests were sent", classNames[c])
		}
		vals["serve.http_ms."+classNames[c]] = median(l.httpMS[c])
	}
	vals["miss_p50_ms"] = l.lat[miss].q(0.5)
	vals["miss_p75_ms"] = l.lat[miss].q(0.75)
	vals["serve.miss_p90_ms"] = l.lat[miss].q(0.90)
	vals["serve.miss_p99_ms"] = l.lat[miss].q(0.99)
	vals["hit_p50_ms"] = l.lat[hit].q(0.5)
	vals["large_p50_ms"] = l.lat[large].q(0.5)
	vals["gen.late_p99_ms"] = quantile(l.late, 0.99)
	vals["capacity_rps"] = float64(l.served) / l.probeS
	m := l.layer
	vals["serve.job_ms"] = 1000 * m[`distec_serve_job_seconds_sum{outcome="completed"}`] / max(m[`distec_serve_job_seconds_count{outcome="completed"}`], 1)
	vals["cache.hit_ratio"] = m["distec_cache_hits_total"] / max(m["distec_cache_hits_total"]+m["distec_cache_misses_total"], 1)
	vals["serve.admission_rejected"] = m["distec_serve_admission_rejected_total"]
	vals["serve.sequential_runs"] = m[`distec_serve_runs_total{route="sequential"}`]
	vals["serve.sliced_runs"] = m[`distec_serve_runs_total{route="sliced"}`]
	vals["serve.fanout_runs"] = m[`distec_serve_runs_total{route="fanout"}`]
	vals["http.requests"] = m["distec_http_requests_total"]
	vals["http.errors"] = m["distec_http_errors_total"]
	fmt.Fprintf(os.Stderr, "e2ebench: serve %d misses, %d hits, %d large; saturation %d in %.2fs\n",
		len(l.lat[miss].all()), len(l.lat[hit].all()), len(l.lat[large].all()), l.served, l.probeS)
	return nil
}
