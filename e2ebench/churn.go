package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/bench"
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/verify"
)

// session is one durable Vizing session and the client's mirror of its
// graph: every edge ever inserted in EdgeID order, tombstones included,
// which is all a coloring needs to be checked independently of the daemon.
type session struct {
	id      string
	g       *graph.Graph
	active  []bool
	palette int
	ops     []bench.EdgeOp // the update stream, consumed in batches
	next    int
	sent    int // requests sent, reads included
	broken  bool
	seq     uint64
	client  *http.Client // one connection per session
}

type sessionReply struct {
	SessionID string `json:"session_id"`
	Colors    []int  `json:"colors"`
	Palette   int    `json:"palette"`
	Seq       uint64 `json:"seq"`
	Verified  bool   `json:"verified"`
}

type updateReply struct {
	Results  []distec.UpdateResult `json:"results"`
	Seq      uint64                `json:"seq"`
	Verified bool                  `json:"verified"`
}

func createSession(ctx context.Context, c *http.Client, base string, g *distec.Graph, ops []bench.EdgeOp) (*session, error) {
	body := encode(map[string]any{"graph": graphSpec(g), "algorithm": "vizing"})
	var r sessionReply
	if err := postJSON(ctx, c, base+"/v1/session", body, &r); err != nil {
		return nil, err
	}
	s := &session{
		id: r.SessionID, g: g.Clone(), active: make([]bool, g.M()), palette: r.Palette, ops: ops,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
	}
	for i := range s.active {
		s.active[i] = true
	}
	if err := s.check(r.Colors, r.Verified); err != nil {
		return nil, fmt.Errorf("session create: %w", err)
	}
	return s, nil
}

// check verifies a full coloring of the session against the mirror: a
// proper coloring of the active edges inside the palette, tombstones
// uncolored, and the daemon's own verified flag set.
func (s *session) check(colors []int, verified bool) error {
	if !verified {
		return errors.New("daemon reported verified=false")
	}
	if err := verify.EdgeColoring(s.g, s.active, colors); err != nil {
		return err
	}
	for e, c := range colors {
		if s.active[e] && c >= s.palette || !s.active[e] && c != -1 {
			return fmt.Errorf("edge %d color %d outside palette %d (active %v)", e, c, s.palette, s.active[e])
		}
	}
	return nil
}

// apply folds one acknowledged batch into the mirror, checking that the
// daemon applied exactly the updates sent, in order, to the right edges.
func (s *session) apply(ops []bench.EdgeOp, r *updateReply) error {
	if !r.Verified {
		return errors.New("update: verified=false")
	}
	if len(r.Results) != len(ops) {
		return fmt.Errorf("update: %d results for %d updates", len(r.Results), len(ops))
	}
	if r.Seq != s.seq+1 {
		return fmt.Errorf("update: seq %d after %d", r.Seq, s.seq)
	}
	s.seq = r.Seq
	for i, op := range ops {
		e := int(r.Results[i].Edge)
		switch {
		case e == s.g.M() && !op.Delete:
			if _, err := s.g.AddEdge(op.U, op.V); err != nil {
				return err
			}
			s.active = append(s.active, true)
		case e >= 0 && e < s.g.M():
			if u, v := s.g.Endpoints(graph.EdgeID(e)); u != min(op.U, op.V) || v != max(op.U, op.V) {
				return fmt.Errorf("update: edge %d is {%d,%d}, sent {%d,%d}", e, u, v, op.U, op.V)
			}
			if s.active[e] != op.Delete {
				return fmt.Errorf("update: edge %d active=%v before op delete=%v", e, s.active[e], op.Delete)
			}
			s.active[e] = !op.Delete
		default:
			return fmt.Errorf("update: edge id %d of %d", e, s.g.M())
		}
	}
	return nil
}

// churnLog is what one session's client measured in one round.
type churnLog struct {
	batches, reads []float64 // latencies, ms
	updates        int
	t              tally
}

// step sends the session's next request and waits for the answer: a
// batch of up to cfg.batch updates from its stream, short of end, or
// every readEvery-th request a read of the whole session.
func (s *session) step(ctx context.Context, base string, cfg config, end int, out *churnLog) {
	s.sent++
	if s.sent%cfg.readEvery == 0 {
		var r sessionReply
		start := time.Now()
		err := getJSON(ctx, s.client, base+"/v1/session/"+s.id, &r)
		out.reads = append(out.reads, ms(time.Since(start)))
		if err == nil && (!r.Verified || r.Seq != s.seq || len(r.Colors) != s.g.M()) {
			err = fmt.Errorf("read: verified=%v seq %d (want %d), %d colors for %d edges", r.Verified, r.Seq, s.seq, len(r.Colors), s.g.M())
		}
		out.t.add(err)
		return
	}
	ops := s.ops[s.next:min(s.next+cfg.batch, end)]
	ups := make([]distec.Update, len(ops))
	for i, op := range ops {
		ups[i] = distec.Update{Op: distec.InsertEdge, U: op.U, V: op.V}
		if op.Delete {
			ups[i].Op = distec.DeleteEdge
		}
	}
	var r updateReply
	start := time.Now()
	err := postJSON(ctx, s.client, base+"/v1/session/"+s.id+"/update", encode(map[string]any{"updates": ups}), &r)
	out.batches = append(out.batches, ms(time.Since(start)))
	if err == nil {
		err = s.apply(ops, &r)
	}
	out.t.add(err)
	if err != nil {
		s.broken = true // the mirror no longer matches; later batches would all fail
		return
	}
	s.next += len(ops)
	out.updates += len(ops)
}

// snapshot reads and checks the full state of every session.
func snapshot(ctx context.Context, c *http.Client, base string, ss []*session) ([][]int, error) {
	out := make([][]int, len(ss))
	for i, s := range ss {
		var r sessionReply
		if err := getJSON(ctx, c, base+"/v1/session/"+s.id, &r); err != nil {
			return nil, err
		}
		if r.Seq != s.seq {
			return nil, fmt.Errorf("session %s: seq %d, client acknowledged %d", s.id, r.Seq, s.seq)
		}
		if err := s.check(r.Colors, r.Verified); err != nil {
			return nil, fmt.Errorf("session %s: %w", s.id, err)
		}
		out[i] = r.Colors
	}
	return out, nil
}

// churner drives the churn phase over the rounds of a run. The sessions'
// update streams are split into one equal segment per round: a fixed
// amount of work, so the WAL a restart replays does not grow when churn
// gets faster.
type churner struct {
	cfg            config
	e              *env
	batches, reads perRound  // latencies, ms
	recovers       []float64 // restart until both sessions serve verified, identical state
	recoveryS      []float64 // the daemon's own mean per-session recovery time
	updates        int
	elapsed        time.Duration
	layer          map[string]float64
}

func newChurner(cfg config, e *env) *churner {
	return &churner{cfg: cfg, e: e, layer: map[string]float64{}}
}

var churnSeries = []string{
	`distec_session_updates_total{tier="greedy"}`, `distec_session_updates_total{tier="repaired"}`,
	`distec_session_updates_total{tier="augmented"}`, `distec_session_updates_total{tier="delete"}`,
	"distec_session_update_seconds_sum", "distec_session_update_seconds_count",
	"distec_persist_wal_appends_total", "distec_persist_wal_appended_bytes_total",
	"distec_persist_compactions_total", "distec_persist_snapshot_writes_total",
}

// segment drives both sessions through segment seg of cfg.rounds, then
// SIGKILLs the daemon, restarts it on the same data dir and times how long
// until both sessions answer with their pre-kill seq and identical colors.
func (c *churner) segment(ctx context.Context, seg int, t *tally) error {
	e := c.e
	before, err := scrape(ctx, e.ctl, e.d.base)
	if err != nil {
		return err
	}
	start := time.Now()
	logs := make([]churnLog, len(e.sessions))
	// One controller takes turns between the sessions, one request in
	// flight at a time: on a 2-core host two concurrent closed loops
	// measured how their requests collided more than the daemon.
	for busy := true; busy && ctx.Err() == nil; {
		busy = false
		for i, s := range e.sessions {
			if end := len(s.ops) * (seg + 1) / c.cfg.rounds; s.next < end && !s.broken {
				s.step(ctx, e.d.base, c.cfg, end, &logs[i])
				busy = true
			}
		}
	}
	c.elapsed += time.Since(start)
	for i := range logs {
		l := &logs[i]
		for _, b := range l.batches {
			c.batches.add(seg, b)
		}
		for _, r := range l.reads {
			c.reads.add(seg, r)
		}
		c.updates += l.updates
		t.merge(l.t)
	}
	after, err := scrape(ctx, e.ctl, e.d.base)
	if err != nil {
		return err
	}
	for _, k := range churnSeries {
		c.layer[k] += delta(before, after, k)
	}

	pre, err := snapshot(ctx, e.ctl, e.d.base, e.sessions)
	t.add(err)
	e.d.kill()
	restart := time.Now()
	if e.d, err = startDaemon(ctx, c.cfg.daemon, e.dataDir, e.logPath); err != nil {
		e.d = nil
		return err
	}
	for _, s := range e.sessions {
		s.client.CloseIdleConnections()
	}
	e.ctl.CloseIdleConnections()
	post, err := snapshot(ctx, e.ctl, e.d.base, e.sessions)
	if err == nil && pre != nil {
		for i := range pre {
			if !slices.Equal(pre[i], post[i]) {
				err = fmt.Errorf("session %s: colors changed across restart", e.sessions[i].id)
			}
		}
	}
	c.recovers = append(c.recovers, sec(time.Since(restart)))
	t.add(err)
	m, err := scrape(ctx, e.ctl, e.d.base)
	if err != nil {
		return err
	}
	c.layer["records"] += m["distec_persist_recovered_records_total"]
	if n := m["distec_session_recovery_seconds_count"]; n > 0 {
		c.recoveryS = append(c.recoveryS, m["distec_session_recovery_seconds_sum"]/n)
	}
	return nil
}

// report sets the churn metrics.
func (c *churner) report(vals map[string]float64) error {
	if c.updates == 0 {
		return errors.New("churn applied no updates")
	}
	fmt.Fprintf(os.Stderr, "e2ebench: churn %d updates in %.2fs, %d batches, %d reads; recoveries %.3f s\n",
		c.updates, c.elapsed.Seconds(), len(c.batches.all()), len(c.reads.all()), c.recovers)
	vals["churn_updates_per_s"] = float64(c.updates) / c.elapsed.Seconds()
	vals["churn_p75_ms"] = c.batches.q(0.75)
	vals["session.batch_p99_ms"] = c.batches.q(0.99)
	vals["read_p50_ms"] = c.reads.q(0.5)
	// The k-th restart replays k segments of WAL, so the restarts differ
	// by design; their mean is the recovery time of the run.
	var sum float64
	for _, r := range c.recovers {
		sum += r
	}
	vals["recover_s"] = sum / float64(len(c.recovers))
	vals["session.recovery_s"] = median(c.recoveryS)
	m := c.layer
	all := m[`distec_session_updates_total{tier="greedy"}`] + m[`distec_session_updates_total{tier="repaired"}`] +
		m[`distec_session_updates_total{tier="augmented"}`] + m[`distec_session_updates_total{tier="delete"}`]
	per1k := func(k string) float64 { return 1000 * m[k] / max(all, 1) }
	vals["dynamic.greedy"] = per1k(`distec_session_updates_total{tier="greedy"}`)
	vals["dynamic.repairs"] = per1k(`distec_session_updates_total{tier="repaired"}`)
	vals["dynamic.augments"] = per1k(`distec_session_updates_total{tier="augmented"}`)
	vals["session.update_ms"] = 1000 * m["distec_session_update_seconds_sum"] / max(m["distec_session_update_seconds_count"], 1)
	vals["persist.wal_appends"] = m["distec_persist_wal_appends_total"]
	vals["persist.wal_bytes"] = m["distec_persist_wal_appended_bytes_total"] / max(m["distec_persist_wal_appends_total"], 1)
	vals["persist.compactions"] = m["distec_persist_compactions_total"]
	vals["persist.snapshot_writes"] = m["distec_persist_snapshot_writes_total"]
	vals["persist.recovered_records"] = m["records"]
	return nil
}
