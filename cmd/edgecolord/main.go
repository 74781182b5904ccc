// Command edgecolord is the edge-coloring daemon: an HTTP/JSON front end
// over the shared serving pool (distec.NewPool). cmd/loadgen drives load
// against a running daemon.
//
//	edgecolord -addr :8405 -workers 0 -queue 0 -cache 32
//
//	POST   /v1/color                color a graph (JSON; see colorRequest)
//	POST   /v1/session              create a dynamic session (color + maintain)
//	GET    /v1/session/{id}         session coloring + stats
//	POST   /v1/session/{id}/update  apply a batch of edge inserts/deletes
//	DELETE /v1/session/{id}         drop a session
//	GET    /v1/stats                pool metrics + daemon counters (JSON)
//	GET    /metrics                 the same registry in Prometheus text format
//	GET    /healthz                 liveness
//
// With -pprof the daemon additionally serves net/http/pprof under
// /debug/pprof/ for live CPU, heap, and contention profiling.
//
// One coloring per POST /v1/color: the graph as an edge list, optionally an
// algorithm, palette, seed, per-edge lists (list coloring), and a partial
// coloring (extension). Every response is verified server-side before it is
// returned. Example:
//
//	curl -s localhost:8405/v1/color -d '{"graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}'
//
// A dynamic session keeps a live network's coloring server-side and repairs
// it incrementally under edge updates (distec.NewDynamic over the shared
// pool), so a small update never recolors the whole graph:
//
//	curl -s localhost:8405/v1/session -d '{"graph":{"n":4,"edges":[[0,1],[1,2]]}}'
//	curl -s localhost:8405/v1/session/<id>/update -d '{"updates":[{"op":"insert","u":2,"v":3}]}'
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/metrics"
	"github.com/distec/distec/internal/persist"
	"github.com/distec/distec/internal/trace"
)

func main() {
	var (
		addr    = flag.String("addr", ":8405", "listen address (serve mode)")
		workers = flag.Int("workers", 0, "pool worker lanes (0: one per core)")
		queue   = flag.Int("queue", 0, "pool queue depth (0: 4x workers)")
		small   = flag.Int("small", 0, "small-job entity threshold (0: default)")
		cache   = flag.Int("cache", 0, "result cache entries (0: default, <0: disabled)")

		dataDir     = flag.String("data-dir", "", "persist dynamic sessions (snapshot + WAL) under this directory and recover them on boot")
		fsyncMode   = flag.String("fsync", "always", "session durability: always (fsync per batch, survives OS crashes) or none (kernel write per batch, survives process crashes)")
		walCompact  = flag.Int64("wal-compact-bytes", persist.DefaultCompactBytes, "compact a session (fresh snapshot, retired WAL) once its WAL exceeds this size")
		diffCompact = flag.Bool("diff-compact", false, "compact with appended differential snapshots when smaller than a full rewrite")
		sessionTTL  = flag.Duration("session-ttl", 30*time.Minute, "evict dynamic sessions idle longer than this (0: never evict)")
		maxResident = flag.Int("max-resident", defaultMaxResident, "with -data-dir: sessions resident in memory at once; the least-recently-used beyond it passivate to disk and rehydrate on access")
		maxSess     = flag.Int("max-sessions", 0, "registry bound on live sessions (0: 64 memory-only, 4096 with -data-dir)")

		follow       = flag.String("follow", "", "warm-standby mode: replicate every session from the leader at this base URL into -data-dir; session traffic answers 503 until promotion")
		followPoll   = flag.Duration("follow-poll", 500*time.Millisecond, "follower: session-list poll interval and leader health-check cadence")
		promoteAfter = flag.Duration("promote-after", 0, "follower: promote to serving once the leader has been unreachable this long (0: promote only on POST /v1/promote)")
		pprofFlag    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (CPU, heap, block profiles on the live daemon)")
		logFormat    = flag.String("log-format", "text", "structured log format on stderr: text or json")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgecolord:", err)
		os.Exit(2)
	}
	if *fsyncMode != "always" && *fsyncMode != "none" {
		fmt.Fprintf(os.Stderr, "edgecolord: unknown -fsync mode %q (want always or none)\n", *fsyncMode)
		os.Exit(2)
	}
	// One registry serves both observability surfaces: the pool, cache,
	// session, and persistence subsystems all register here, GET /metrics
	// renders it, and /v1/stats reads the same counters — the two surfaces
	// cannot diverge.
	reg := metrics.New()
	pool := distec.NewPool(distec.PoolOptions{
		Workers:    *workers,
		QueueDepth: *queue,
		SmallJob:   *small,
		CacheSize:  *cache,
		Metrics:    reg,
	})
	// Recovery runs before the listener opens: every persisted session is
	// live again — WAL replayed, verified, re-registered under its original
	// ID — before the first request can reach it.
	d, err := newDaemon(pool, daemonConfig{
		dataDir:      *dataDir,
		fsync:        *fsyncMode == "always",
		compactBytes: *walCompact,
		diffCompact:  *diffCompact,
		sessionTTL:   *sessionTTL,
		maxSessions:  *maxSess,
		maxResident:  *maxResident,
		follow:       *follow,
		followPoll:   *followPoll,
		promoteAfter: *promoteAfter,
		pprof:        *pprofFlag,
		metrics:      reg,
		logger:       logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		logger.Info("session recovery complete", "data_dir", *dataDir, "fsync", *fsyncMode,
			"recovered", d.recovered, "failed", d.recoveryFailures)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: d.mux,
		// Slow-client bounds: a stalled or trickling connection must not
		// pin a handler goroutine (and up to maxBodyBytes of buffer)
		// forever. Reads are generous because bodies can carry 10⁶-edge
		// graphs. The write deadline here only bounds the job phase; once a
		// result is in hand, the handler extends the deadline per-request
		// (see server.respond) so a job that legitimately used its full
		// 5-minute budget still gets the response-transfer budget on top —
		// with a shared deadline, exactly those responses were computed and
		// then lost on a connection that could no longer write.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      maxJobTimeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutdown signal received, draining")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Shutdown returns only once in-flight requests have drained (or
		// the grace period expires); ListenAndServe returns immediately.
		srv.Shutdown(ctx)
	}()
	logger.Info("serving", "addr", *addr,
		"workers", pool.Stats().Workers, "queue", pool.Stats().QueueDepth)
	err = srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		// Graceful path: wait for the drain before tearing down the pool,
		// so in-flight handlers finish their jobs and write their responses.
		<-drained
		err = nil
	}
	pool.Close()
	// Quiesce the sessions last: in-flight compactions finish and the WAL
	// files close cleanly (recovery handles an unclean exit regardless).
	d.close()
	if err != nil {
		logger.Error("server error", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger on stderr: text for
// humans at a terminal, json for log pipelines.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// maxBodyBytes bounds one request body (a 10⁶-edge graph is ~16 MB of JSON).
const maxBodyBytes = 64 << 20

// maxGraphNodes bounds graph.n: the node count allocates O(n) regardless of
// body size, so without a cap a 40-byte request naming n=2·10⁹ would OOM
// the daemon. 2²² nodes comfortably covers any graph maxBodyBytes can carry
// edges for.
const maxGraphNodes = 1 << 22

// maxPalette bounds the requested palette for the same reason: the library
// allocates O(palette) scratch (uniform lists, extension pruning) before
// any palette-vs-graph sanity check can reject it. Meaningful palettes are
// at most 2Δ−1 < 2·maxGraphNodes.
const maxPalette = 1 << 23

// maxJobTimeout is the ceiling on client-requested timeout_ms: without it,
// a handful of requests naming day-long timeouts would pin lanes and
// admission slots for as long as their connections stay open.
const maxJobTimeout = 5 * time.Minute

// responseWriteBudget is the per-request write budget granted once a result
// is ready: the job phase is bounded by maxJobTimeout separately, so the
// response transfer gets its own window instead of whatever the job left
// of the connection's shared WriteTimeout.
const responseWriteBudget = 2 * time.Minute

// defaultMaxSessions bounds the number of live dynamic sessions when the
// registry is memory-only: each pins a graph and its coloring in memory for
// as long as the client keeps it.
const defaultMaxSessions = 64

// defaultMaxSessionsDurable is the registry bound with -data-dir: sessions
// beyond the residency limit passivate to disk, so the registry can hold
// far more sessions than fit in memory at once.
const defaultMaxSessionsDurable = 4096

// defaultMaxResident bounds how many durable sessions stay resident in
// memory at once; the least-recently-used beyond it passivate to disk and
// rehydrate transparently on their next touch.
const defaultMaxResident = 64

// maxUpdatesPerBatch bounds one session update batch; longer streams are
// split by the client into multiple requests, each with its own timeout.
const maxUpdatesPerBatch = 100000

// maxSessionEdges bounds a session's cumulative graph size, tombstones
// included: the underlying graph is append-only, so without this cap a
// single session could grow the daemon's memory without limit through
// insert batches (every insert appends permanently; deletes only
// tombstone).
const maxSessionEdges = 1 << 22

// colorRequest is the body of POST /v1/color.
type colorRequest struct {
	Graph graphSpec `json:"graph"`
	// Algorithm is one of bko, bko-theory, pr01, greedy-classes, randomized,
	// vizing (default bko).
	Algorithm string `json:"algorithm,omitempty"`
	// Palette overrides the palette size (default 2Δ−1, or Δ+1 for vizing;
	// required with lists).
	Palette int `json:"palette,omitempty"`
	// Seed feeds the randomized algorithm.
	Seed uint64 `json:"seed,omitempty"`
	// Lists, when present, selects (deg(e)+1)-list coloring: one ascending
	// color list per edge. Requires palette.
	Lists [][]int `json:"lists,omitempty"`
	// Partial, when present, selects extension: partial[e] ≥ 0 keeps that
	// color, −1 marks an edge to complete. Requires lists and palette.
	Partial []int `json:"partial,omitempty"`
	// TimeoutMS bounds the job (0: the server's default of 60 s; values
	// above the server's 5-minute ceiling are clamped to it, so clients
	// cannot pin lanes and admission slots indefinitely).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// graphSpec is a plain edge-list graph.
type graphSpec struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// colorResponse is the body of a successful POST /v1/color. Trace is the
// round-level solve summary, present only when the request asked for it
// with ?trace=1 (traced requests bypass the result cache: a cache hit
// runs zero rounds and would trace as empty).
type colorResponse struct {
	Colors     []int          `json:"colors"`
	Rounds     int            `json:"rounds"`
	Messages   int64          `json:"messages"`
	Palette    int            `json:"palette"`
	ColorsUsed int            `json:"colors_used"`
	Verified   bool           `json:"verified"`
	DurationMS float64        `json:"duration_ms"`
	Trace      *trace.Summary `json:"trace,omitempty"`
}

// statsResponse is the body of GET /v1/stats: the pool snapshot plus the
// daemon counters, all read from the same registry-backed counters the
// Prometheus endpoint renders, plus build identity so dashboards and the
// crash-recovery harness can tell daemon generations apart.
type statsResponse struct {
	distec.PoolStats
	UptimeSeconds float64 `json:"uptime_seconds"`
	// GoVersion and BuildRevision identify the binary (runtime.Version and
	// the VCS revision stamped into the build, "unknown" without one).
	GoVersion     string `json:"go_version"`
	BuildRevision string `json:"build_revision"`
	daemonCounters
	Sessions int `json:"sessions"`
	// SessionsResident counts the sessions currently held in memory; the
	// remainder are passivated to disk and rehydrate on access.
	SessionsResident int `json:"sessions_resident"`
	// SessionsRecovered/RecoveryFailures report the boot-time recovery of
	// persisted sessions (-data-dir).
	SessionsRecovered int `json:"sessions_recovered"`
	RecoveryFailures  int `json:"recovery_failures"`
}

// daemonCounters is the daemon's own counter block, snapshotted in one
// place (see counterSnapshot) so a scrape can never read the fields at
// wildly different instants through separate accessor calls.
type daemonCounters struct {
	HTTPRequests uint64 `json:"http_requests"`
	HTTPErrors   uint64 `json:"http_errors"`
	// SessionCreates/SessionDeletes/SessionEvictions count registry
	// lifecycle events (evictions are the TTL sweeper's reclaims);
	// SessionClosedRejects counts update batches that lost the race with a
	// delete or eviction and were answered 410 Gone.
	SessionCreates       uint64 `json:"session_creates"`
	SessionDeletes       uint64 `json:"session_deletes"`
	SessionEvictions     uint64 `json:"session_evictions"`
	SessionClosedRejects uint64 `json:"session_closed_rejects"`
}

// sessionRequest is the body of POST /v1/session: the graph to keep live,
// with the same knobs as colorRequest minus lists/partial (sessions maintain
// uniform-palette colorings).
type sessionRequest struct {
	Graph     graphSpec `json:"graph"`
	Algorithm string    `json:"algorithm,omitempty"`
	Palette   int       `json:"palette,omitempty"`
	Seed      uint64    `json:"seed,omitempty"`
	TimeoutMS int       `json:"timeout_ms,omitempty"`
}

// sessionResponse is the body of session create/get responses. Seq is the
// session's applied-batch sequence number — after a daemon restart it tells
// the client exactly how much of its update history was made durable.
type sessionResponse struct {
	SessionID  string              `json:"session_id"`
	Colors     []int               `json:"colors"`
	Palette    int                 `json:"palette"`
	Seq        uint64              `json:"seq"`
	Stats      distec.DynamicStats `json:"stats"`
	Verified   bool                `json:"verified"`
	DurationMS float64             `json:"duration_ms"`
}

// updateRequest is the body of POST /v1/session/{id}/update: an ordered
// batch of edge updates applied as one job on the pool's shared lanes.
type updateRequest struct {
	Updates   []distec.Update `json:"updates"`
	TimeoutMS int             `json:"timeout_ms,omitempty"`
}

// updateResponse reports one applied batch. Results holds one entry per
// applied update, in order (on error, the applied prefix's length arrives
// in the error body instead).
type updateResponse struct {
	Results    []distec.UpdateResult `json:"results"`
	Seq        uint64                `json:"seq"`
	Stats      distec.DynamicStats   `json:"stats"`
	Verified   bool                  `json:"verified"`
	DurationMS float64               `json:"duration_ms"`
	// Trace is the round-level repair summary, present under ?trace=1.
	Trace *trace.Summary `json:"trace,omitempty"`
}

// daemonConfig is the serve-mode configuration newDaemon needs beyond the
// pool: session durability and lifecycle policy.
type daemonConfig struct {
	// dataDir enables session persistence: each dynamic session lives in
	// dataDir/<id> as a snapshot plus WAL, journaled on every applied
	// batch, compacted in the background, and recovered on boot. Empty
	// keeps sessions memory-only (the pre-persistence behavior).
	dataDir string
	// fsync selects durable writes (fsync per batch and snapshot); without
	// it writes still reach the kernel per batch, surviving process
	// crashes but not OS crashes.
	fsync bool
	// compactBytes is the per-session WAL size that triggers compaction
	// (0: persist.DefaultCompactBytes); diffCompact serves compactions with
	// appended differential snapshots when they are smaller than a full
	// snapshot rewrite.
	compactBytes int64
	diffCompact  bool
	// sessionTTL evicts sessions idle longer than this — the fix for
	// abandoned sessions pinning the registry cap forever. 0 disables.
	sessionTTL time.Duration
	// maxSessions bounds the registry (0: 64 memory-only, 4096 with a data
	// dir); maxResident bounds how many durable sessions are resident in
	// memory at once (0: 64; ignored without a data dir, where every
	// session is memory-only and can never passivate).
	maxSessions int
	maxResident int
	// follow, when set, boots the daemon as a warm standby: it tails every
	// session of the leader at this base URL into its own data dir and
	// answers session traffic 503 until promoted (POST /v1/promote, or
	// automatically once the leader has been unreachable for
	// promoteAfter > 0). followPoll is the session-list poll interval.
	follow       string
	followPoll   time.Duration
	promoteAfter time.Duration
	// pprof serves net/http/pprof under /debug/pprof/.
	pprof bool
	// metrics is the registry every subsystem reports into; the pool must
	// have been created with the same one. newDaemon creates a fresh
	// registry when nil (tests), losing only the pool families.
	metrics *metrics.Registry
	// logger receives the daemon's structured log stream (access lines,
	// startup, recovery). nil discards — the default for tests.
	logger *slog.Logger
}

// session is one registry entry: the live coloring, its durability log
// (nil without -data-dir), and the idle-eviction clock. A durable session
// is not always resident: passivation drops d and log (the state lives on
// disk) and the next touch rehydrates them.
type session struct {
	id string
	// mu serializes residency transitions (passivate, rehydrate, drop); d
	// and log are only replaced under it. Handlers that already hold a d
	// may keep using it across a passivation — a passivated Dynamic stays
	// readable, and writes fail with ErrSessionPassivated.
	mu  sync.Mutex
	d   *distec.Dynamic
	log *persist.Log
	// dropped marks a deleted/evicted/retired session so a racing handler
	// cannot rehydrate it back to life from files being removed.
	dropped bool
	// resident mirrors d != nil, readable without mu for victim selection.
	resident atomic.Bool
	// last is the UnixNano of the last client touch (create, get, update);
	// inflight counts batches currently executing, so the idle sweeper
	// never evicts a session mid-batch just because the batch outlived the
	// TTL, and the passivator prefers sessions with nothing running.
	last     atomic.Int64
	inflight atomic.Int32
}

func (sess *session) touch() { sess.last.Store(time.Now().UnixNano()) }

// server is the daemon's HTTP state: the shared pool, the metrics
// registry with the daemon's own counters on it, and the dynamic-session
// registry.
type server struct {
	pool  *distec.Pool
	cfg   daemonConfig
	start time.Time
	// logger is cfg.logger, or a discard logger when the config left it
	// nil (tests), so call sites never test for nil.
	logger *slog.Logger

	// reg is the one registry behind both GET /metrics and /v1/stats; the
	// counters below are registered on it, so the two surfaces read the
	// very same atomics.
	reg       *metrics.Registry
	requests  *metrics.Counter
	errors    *metrics.Counter
	evictions *metrics.Counter
	creates   *metrics.Counter
	deletes   *metrics.Counter
	// closedRejects counts updates answered 410 Gone because the session
	// closed mid-flight (deleted or evicted while the batch ran).
	closedRejects *metrics.Counter
	// updateLatency observes every session update batch end to end;
	// updateTiers splits applied updates by how they were served (delete,
	// or inserts by repair tier: greedy / repaired / augmented).
	updateLatency *metrics.Histogram
	updateTiers   map[string]*metrics.Counter
	// recoveryTime observes per-session boot recovery (open + replay +
	// verify), successes only; rehydrateTime the same pipeline when a
	// passivated session is brought back on access.
	recoveryTime  *metrics.Histogram
	rehydrateTime *metrics.Histogram
	// passivations and rehydrations count residency transitions;
	// residentCount is the live resident-session gauge behind them.
	passivations  *metrics.Counter
	rehydrations  *metrics.Counter
	residentCount atomic.Int64
	// solveRounds/solveQuiescent/roundDuration aggregate the convergence
	// behavior of traced solves (?trace=1): how many rounds a solve takes,
	// how many of them were quiescent (pure simulation overhead), and how
	// long individual rounds run.
	solveRounds    *metrics.Histogram
	solveQuiescent *metrics.Histogram
	roundDuration  *metrics.Histogram
	persistM       *persist.Metrics
	// recovered and recoveryFailures count boot-time session recovery
	// outcomes (written once before the listener opens).
	recovered        int
	recoveryFailures int

	mux http.Handler

	// following is true while the daemon is a warm standby (-follow):
	// session traffic answers 503, the follower loop tails the leader, and
	// promotion flips it false after recovering the replicated state.
	following atomic.Bool
	repl      *follower

	sessMu   sync.Mutex
	sessions map[string]*session

	stopSweep chan struct{}
	closeOnce sync.Once

	// afterJob, when non-nil, runs after a handler's compute phase and
	// before its response is written — a test seam standing in for a job
	// that consumed the connection's whole write window. beforeUpdate runs
	// between a session update's registry lookup and its batch — the seam
	// that widens the delete/update race window for the regression test.
	afterJob     func()
	beforeUpdate func()
}

// newDaemon builds the daemon state over a shared pool (separated from main
// for tests that need the *server), recovering every persisted session
// before any request can be served. Recovery is resilient: a session whose
// files fail checksum, replay, or verification is skipped (and counted),
// never served wrong.
func newDaemon(pool *distec.Pool, cfg daemonConfig) (*server, error) {
	reg := cfg.metrics
	if reg == nil {
		reg = metrics.New()
	}
	s := &server{pool: pool, cfg: cfg, start: time.Now(), reg: reg, sessions: make(map[string]*session), stopSweep: make(chan struct{})}
	s.logger = cfg.logger
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.registerMetrics()
	if cfg.follow != "" && cfg.dataDir == "" {
		return nil, errors.New("-follow requires -data-dir (the standby needs somewhere to replicate to)")
	}
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		if cfg.follow == "" {
			s.recoverSessions()
		} else {
			// A follower's data dir is owned by the replication loop until
			// promotion; recovery runs then, over whatever was replicated.
			s.following.Store(true)
			s.repl = newFollower(s)
			go s.repl.run()
		}
	}
	if cfg.sessionTTL > 0 {
		go s.sweepLoop()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/v1/color", s.handleColor)
	mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/session/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/session/{id}/update", s.handleSessionUpdate)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/replication/status", s.handleReplicationStatus)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	if cfg.dataDir != "" {
		mux.HandleFunc("GET /v1/replicate", s.handleReplicateList)
		mux.HandleFunc("GET /v1/replicate/{id}", s.handleReplicateSession)
	}
	if cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = s.accessLog(mux)
	return s, nil
}

// requestInfo is the per-request record the access-log middleware and
// the handlers fill together: the middleware mints the ID and writes the
// final log line; handlers report the job size they decoded. Handlers
// run synchronously inside ServeHTTP, so plain fields suffice.
type requestInfo struct {
	id string
	// jobSize is the request's decoded work size — edges for coloring
	// and session creation, batch updates for session updates; −1 for
	// requests that carry no job (stats, metrics, health).
	jobSize int
}

type requestInfoKey struct{}

// requestFrom returns the request's info record, or nil outside the
// access-log middleware (direct handler tests).
func requestFrom(ctx context.Context) *requestInfo {
	ri, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return ri
}

// setJobSize records the decoded job size for the access log.
func setJobSize(ctx context.Context, n int) {
	if ri := requestFrom(ctx); ri != nil {
		ri.jobSize = n
	}
}

// statusWriter captures the response status for the access log. Unwrap
// keeps http.NewResponseController (see respond) reaching the real
// connection's deadline controls through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// accessLog wraps the daemon's mux: accept the client's X-Request-Id (or
// mint one), echo it on the response, and emit one structured access-log
// line per request — the ID is the join key between these lines, traced
// solve summaries, and client-side records.
func (s *server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = trace.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ri := &requestInfo{id: id, jobSize: -1}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, ri)))
		status := sw.status
		if status == 0 {
			// Nothing was written: net/http sends 200 with an empty body.
			status = http.StatusOK
		}
		attrs := []any{
			"request_id", id,
			"method", r.Method,
			"route", r.URL.Path,
			"status", status,
			"duration_ms", float64(time.Since(start).Microseconds()) / 1000,
		}
		if ri.jobSize >= 0 {
			attrs = append(attrs, "job_size", ri.jobSize)
		}
		s.logger.Info("request", attrs...)
	})
}

// registerMetrics creates the daemon's own counters on the registry —
// everything /v1/stats reports beyond the pool lives here, so both
// surfaces read identical state.
func (s *server) registerMetrics() {
	reg := s.reg
	s.requests = reg.Counter("distec_http_requests_total", "API requests received.")
	s.errors = reg.Counter("distec_http_errors_total", "API requests answered with an error status.")
	s.creates = reg.Counter("distec_session_creates_total", "Dynamic sessions created.")
	s.deletes = reg.Counter("distec_session_deletes_total", "Dynamic sessions deleted by clients.")
	s.evictions = reg.Counter("distec_session_evictions_total", "Idle dynamic sessions reclaimed by the TTL sweeper.")
	s.closedRejects = reg.Counter("distec_session_closed_rejected_total", "Update batches answered 410 Gone because the session closed mid-flight.")
	s.updateLatency = reg.Histogram("distec_session_update_seconds", "Session update batch latency, end to end.", metrics.LatencyBuckets)
	const tiersHelp = "Applied session updates by service tier: deletes, and inserts served greedily, by conflict-region repair, or by Vizing augmentation."
	s.updateTiers = map[string]*metrics.Counter{
		"delete":    reg.Counter("distec_session_updates_total", tiersHelp, "tier", "delete"),
		"greedy":    reg.Counter("distec_session_updates_total", tiersHelp, "tier", "greedy"),
		"repaired":  reg.Counter("distec_session_updates_total", tiersHelp, "tier", "repaired"),
		"augmented": reg.Counter("distec_session_updates_total", tiersHelp, "tier", "augmented"),
	}
	s.recoveryTime = reg.Histogram("distec_session_recovery_seconds", "Boot-time per-session recovery duration (open, replay, verify), successes only.", metrics.LatencyBuckets)
	s.rehydrateTime = reg.Histogram("distec_session_rehydration_seconds", "Rehydration latency (open, replay, verify) when a passivated session is touched.", metrics.LatencyBuckets)
	s.passivations = reg.Counter("distec_sessions_passivated_total", "Resident sessions evicted to disk by the residency limit.")
	s.rehydrations = reg.Counter("distec_session_rehydrations_total", "Passivated sessions rehydrated from disk on access.")
	reg.GaugeFunc("distec_sessions_resident", "Dynamic sessions resident in memory (each pins its graph and coloring).", func() float64 { return float64(s.residentCount.Load()) })
	s.solveRounds = reg.Histogram("distec_solve_rounds", "Engine-executed rounds per traced solve (?trace=1 requests only).", roundBuckets)
	s.solveQuiescent = reg.Histogram("distec_solve_quiescent_rounds", "Quiescent rounds (no messages sent, no entity halted) per traced solve — pure simulation overhead.", roundBuckets)
	s.roundDuration = reg.Histogram("distec_round_duration_seconds", "Individual engine round duration, observed from traced solves.", metrics.LatencyBuckets)
	s.persistM = &persist.Metrics{}
	s.persistM.Register(reg)
	reg.GaugeFunc("distec_sessions", "Live dynamic sessions.", func() float64 { return float64(s.sessionCount()) })
	reg.CounterFunc("distec_session_recovered_total", "Sessions recovered at boot.", func() uint64 { return uint64(s.recovered) })
	reg.CounterFunc("distec_session_recovery_failures_total", "Sessions that failed boot recovery and were skipped.", func() uint64 { return uint64(s.recoveryFailures) })
	reg.GaugeFunc("distec_uptime_seconds", "Seconds since the daemon booted.", func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("go_goroutines", "Live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("distec_build_info", "Build identity: constant 1, labeled with the Go version and VCS revision.",
		func() float64 { return 1 }, "go_version", runtime.Version(), "revision", buildRevision())
}

// roundBuckets is the bucket ladder for round-count histograms: solves
// range from a handful of rounds (small graphs, dynamic repairs) to the
// quasi-polylog-in-Δ schedules of large BKO instances.
var roundBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// tracedRequest reports whether the request opted into round-level
// tracing with ?trace=1 (or trace=true).
func tracedRequest(r *http.Request) bool {
	v := r.URL.Query().Get("trace")
	return v == "1" || v == "true"
}

// newRequestTrace builds the tracer for one traced request, stamped with
// the request ID the access-log middleware minted so the returned
// summary joins with the access log.
func newRequestTrace(ctx context.Context) *trace.Trace {
	tr := trace.New()
	if ri := requestFrom(ctx); ri != nil {
		tr.SetRequestID(ri.id)
	}
	return tr
}

// observeTrace feeds one traced solve into the aggregate convergence
// metrics and returns its summary for the response body.
func (s *server) observeTrace(tr *trace.Trace) *trace.Summary {
	sum := tr.Summary()
	if sum == nil {
		return nil
	}
	s.solveRounds.Observe(float64(sum.Rounds))
	s.solveQuiescent.Observe(float64(sum.QuiescentRounds))
	tr.VisitRounds(func(ev trace.RoundEvent) {
		s.roundDuration.Observe(ev.Duration.Seconds())
	})
	return sum
}

// buildRevision extracts the VCS revision stamped into the binary, or
// "unknown" for builds without one (go test binaries, plain go run).
func buildRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// maxSessionsLimit resolves the registry bound: explicit config, else 64
// memory-only or 4096 with a data dir (sessions beyond the residency limit
// live on disk, not in memory).
func (s *server) maxSessionsLimit() int {
	if s.cfg.maxSessions > 0 {
		return s.cfg.maxSessions
	}
	if s.cfg.dataDir != "" {
		return defaultMaxSessionsDurable
	}
	return defaultMaxSessions
}

// maxResidentLimit resolves the residency bound for durable sessions.
func (s *server) maxResidentLimit() int {
	if s.cfg.maxResident > 0 {
		return s.cfg.maxResident
	}
	return defaultMaxResident
}

// close stops the eviction sweeper, the follower loop, and quiesces every
// session (waiting out in-flight compactions, closing WAL files). Sessions
// stay on disk for the next boot.
func (s *server) close() {
	s.closeOnce.Do(func() { close(s.stopSweep) })
	if s.repl != nil {
		s.repl.stopAndWait()
	}
	s.sessMu.Lock()
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.sessions = make(map[string]*session)
	s.sessMu.Unlock()
	for _, sess := range all {
		s.quiesceSession(sess)
	}
}

// quiesceSession closes one already-unregistered session, keeping its
// files: in-flight batches fail with ErrSessionClosed, the WAL closes
// cleanly, and a racing handler can no longer rehydrate it.
func (s *server) quiesceSession(sess *session) {
	sess.mu.Lock()
	sess.dropped = true
	d, lg := sess.d, sess.log
	sess.d, sess.log = nil, nil
	wasResident := sess.resident.Load()
	sess.resident.Store(false)
	sess.mu.Unlock()
	if d != nil {
		d.Close()
	}
	if lg != nil {
		lg.Close()
	}
	if wasResident {
		s.residentCount.Add(-1)
	}
}

// persistOptions maps the daemon config onto the persistence layer's knobs.
func (s *server) persistOptions() persist.Options {
	return persist.Options{Fsync: s.cfg.fsync, CompactBytes: s.cfg.compactBytes, DiffCompact: s.cfg.diffCompact, Metrics: s.persistM}
}

// recoverSessions re-registers every session persisted under the data dir.
// The first maxResident come back fully live through openSession
// (snapshot restored, WAL replayed, coloring verified, original ID kept);
// the rest register passivated after a cheap durability scan (checksums,
// torn tails, sequence chain — everything but the coloring replay), so
// boot cost and memory stay bounded however many sessions the dir holds —
// each rehydrates (and verifies) on its first touch instead.
func (s *server) recoverSessions() {
	entries, err := os.ReadDir(s.cfg.dataDir)
	if err != nil {
		s.logger.Error("session recovery: read data dir", "err", err)
		return
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		start := time.Now()
		sess := &session{id: id}
		if int(s.residentCount.Load()) < s.maxResidentLimit() {
			// Boot recovery runs before the listener accepts anything: there
			// is no request whose deadline could bound this replay, and
			// aborting half-way would just re-run the same work on the next
			// start.
			//distec:nolint ctxflow
			err = s.openSession(context.Background(), sess)
		} else {
			_, _, _, err = persist.ScanDir(filepath.Join(s.cfg.dataDir, id))
		}
		if err != nil {
			s.logger.Error("session recovery failed", "session", id, "err", err)
			s.recoveryFailures++
			continue
		}
		sess.touch()
		s.recoveryTime.Observe(time.Since(start).Seconds())
		s.logger.Info("session recovered", "session", id, "resident", sess.resident.Load(),
			"duration_ms", float64(time.Since(start).Microseconds())/1000)
		s.sessMu.Lock()
		s.sessions[id] = sess
		s.sessMu.Unlock()
		s.recovered++
	}
}

// openSession loads sess from its directory and makes it resident — the
// one load path behind boot recovery, promotion and rehydration. OpenLog
// repairs a torn WAL tail and finishes an interrupted compaction;
// distec.RestoreDynamic restores the merged snapshot, replays the
// surviving records and refuses a session that lands on the wrong seq or
// does not verify. A WAL already past the threshold is then compacted
// synchronously (loading is the cheap moment), so the next load stays
// bounded; a compaction failure poisons the log — serving the session
// anyway would 500 every update with no trace of why — so it fails the
// load. Any failure leaves the files untouched for the operator
// (sessionctl). ctx bounds the replay. The caller holds sess.mu, or owns
// sess exclusively.
func (s *server) openSession(ctx context.Context, sess *session) error {
	lg, snap, records, err := persist.OpenLog(filepath.Join(s.cfg.dataDir, sess.id), s.persistOptions())
	if err != nil {
		return err
	}
	d, err := distec.RestoreDynamic(ctx, snap, records, distec.DynamicOptions{Pool: s.pool})
	if err == nil && lg.NeedsCompaction() {
		var buf bytes.Buffer
		if err = d.Snapshot(&buf); err == nil {
			err = lg.Compact(buf.Bytes())
		}
		if err != nil {
			err = fmt.Errorf("load compaction: %w", err)
		}
	}
	if err != nil {
		lg.Close()
		return err
	}
	d.SetJournal(distec.JournalTo(lg))
	sess.d, sess.log = d, lg
	sess.resident.Store(true)
	s.residentCount.Add(1)
	return nil
}

// sweepLoop periodically evicts idle sessions; see sweepIdle.
func (s *server) sweepLoop() {
	interval := s.cfg.sessionTTL / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			s.sweepIdle()
		}
	}
}

// sweepIdle evicts every session idle longer than the TTL — the fix for
// abandoned sessions occupying the registry cap forever: an evicted session
// is closed (in-flight batches fail with ErrSessionClosed rather than
// mutating a dropped session) and its files are removed, exactly like an
// explicit DELETE. It returns the number evicted; handleSessionCreate calls
// it opportunistically when the registry is full, so one sweep-interval of
// latency never turns into a 503.
func (s *server) sweepIdle() int {
	ttl := s.cfg.sessionTTL
	if ttl <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-ttl).UnixNano()
	var evicted []*session
	s.sessMu.Lock()
	for id, sess := range s.sessions {
		// A session with a batch executing is busy, not abandoned, however
		// long the batch runs; its clock is touched again on completion.
		if sess.last.Load() < cutoff && sess.inflight.Load() == 0 {
			delete(s.sessions, id)
			evicted = append(evicted, sess)
		}
	}
	s.sessMu.Unlock()
	for _, sess := range evicted {
		s.dropSession(sess)
		s.evictions.Add(1)
	}
	return len(evicted)
}

// dropSession tears one already-unregistered session down: close it (late
// and in-flight batches fail with ErrSessionClosed) and remove its files.
// Works on passivated sessions too — there is nothing in memory to close,
// but the files still go.
func (s *server) dropSession(sess *session) {
	s.quiesceSession(sess)
	if s.cfg.dataDir != "" {
		os.RemoveAll(filepath.Join(s.cfg.dataDir, sess.id))
	}
}

// retireSession unregisters and closes a session whose journal failed,
// keeping its files: the durable state (every journaled batch) is intact
// and recoverable on the next boot; only the unjournaled in-memory tail is
// abandoned, exactly as the failed request reported.
func (s *server) retireSession(id string, sess *session) {
	s.sessMu.Lock()
	delete(s.sessions, id)
	s.sessMu.Unlock()
	s.quiesceSession(sess)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.respond(w, http.StatusOK, statsResponse{
		PoolStats:         s.pool.Stats(),
		UptimeSeconds:     time.Since(s.start).Seconds(),
		GoVersion:         runtime.Version(),
		BuildRevision:     buildRevision(),
		daemonCounters:    s.counterSnapshot(),
		Sessions:          s.sessionCount(),
		SessionsResident:  int(s.residentCount.Load()),
		SessionsRecovered: s.recovered,
		RecoveryFailures:  s.recoveryFailures,
	})
}

// counterSnapshot reads every daemon counter into one struct, in one
// place. The counters are independent atomics, so the reads are ordered
// to preserve the block's invariants: each *consuming* counter is read
// before the *producing* counter it is bounded by (deletes, evictions,
// and closed-rejects before creates; errors before requests). A create
// or request landing between the reads then inflates only the producing
// side — a scrape can never report more evictions than creates, or more
// errors than requests, however loaded the daemon is.
func (s *server) counterSnapshot() daemonCounters {
	var c daemonCounters
	c.SessionDeletes = s.deletes.Load()
	c.SessionEvictions = s.evictions.Load()
	c.SessionClosedRejects = s.closedRejects.Load()
	c.SessionCreates = s.creates.Load()
	c.HTTPErrors = s.errors.Load()
	c.HTTPRequests = s.requests.Load()
	return c
}

// handleMetrics renders the registry in the Prometheus text exposition
// format — the same counters /v1/stats reports, scrapable.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *server) sessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

func (s *server) handleColor(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.rejectFollowing(w) {
		return
	}
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req colorRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	g, err := buildGraph(req.Graph)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Palette > maxPalette {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("palette %d exceeds the daemon's limit of %d", req.Palette, maxPalette))
		return
	}
	setJobSize(r.Context(), g.M())
	ctx, cancel := context.WithTimeout(r.Context(), jobTimeout(req.TimeoutMS))
	defer cancel()

	opts := distec.Options{Algorithm: distec.Algorithm(req.Algorithm), Palette: req.Palette, Seed: req.Seed}
	var tr *trace.Trace
	if tracedRequest(r) {
		tr = newRequestTrace(r.Context())
		opts.Trace = tr
	}
	start := time.Now()
	var res *distec.Result
	switch {
	case req.Partial != nil:
		if req.Lists == nil || req.Palette <= 0 {
			s.fail(w, http.StatusBadRequest, errors.New("partial requires lists and palette"))
			return
		}
		res, err = s.pool.ExtendColoring(ctx, g, req.Partial, req.Lists, req.Palette, opts)
	case req.Lists != nil:
		if req.Palette <= 0 {
			s.fail(w, http.StatusBadRequest, errors.New("lists require palette"))
			return
		}
		res, err = s.pool.ColorEdgesList(ctx, g, req.Lists, req.Palette, opts)
	default:
		res, err = s.pool.ColorEdges(ctx, g, opts)
	}
	if s.afterJob != nil {
		s.afterJob()
	}
	if err != nil {
		// Timeouts/cancellation map to 504/499; server-side defects (a
		// panicking protocol, a diverging run) to 500 so monitoring and
		// retry policies classify them correctly; the rest are properties
		// of the request.
		s.failJob(w, err)
		return
	}
	// Never hand out an unverified coloring: the check is O(m + messages
	// already paid) and turns any engine regression into a loud 500.
	switch {
	case req.Partial != nil:
		// Properness for everyone; list membership only for the edges the
		// server colored (fixed partial entries are legitimately exempt).
		err = distec.Verify(g, res.Colors)
		if err == nil {
			err = verifyExtension(req.Partial, req.Lists, res.Colors)
		}
	case req.Lists != nil:
		err = distec.VerifyList(g, req.Lists, res.Colors)
	default:
		err = distec.Verify(g, res.Colors)
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("OUTPUT INVALID: %w", err))
		return
	}
	var sum *trace.Summary
	if tr != nil {
		sum = s.observeTrace(tr)
	}
	s.respond(w, http.StatusOK, colorResponse{
		Colors:     res.Colors,
		Rounds:     res.Rounds,
		Messages:   res.Messages,
		Palette:    res.Palette,
		ColorsUsed: res.ColorsUsed,
		Verified:   true,
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
		Trace:      sum,
	})
}

// handleSessionCreate colors the posted graph on the pool and registers a
// dynamic session maintaining that coloring under updates.
func (s *server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.rejectFollowing(w) {
		return
	}
	maxSessions := s.maxSessionsLimit()
	if s.sessionCount() >= maxSessions {
		// A full registry gets one opportunistic idle sweep before the 503:
		// abandoned sessions must never brick session creation for the TTL
		// sweeper's next tick.
		if s.sweepIdle() == 0 {
			s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("session limit %d reached", maxSessions))
			return
		}
	}
	var req sessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	g, err := buildGraph(req.Graph)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if g.M() > maxSessionEdges {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("graph of %d edges exceeds the daemon's session limit of %d", g.M(), maxSessionEdges))
		return
	}
	if req.Palette > maxPalette {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("palette %d exceeds the daemon's limit of %d", req.Palette, maxPalette))
		return
	}
	setJobSize(r.Context(), g.M())
	ctx, cancel := context.WithTimeout(r.Context(), jobTimeout(req.TimeoutMS))
	defer cancel()

	opts := distec.Options{Algorithm: distec.Algorithm(req.Algorithm), Palette: req.Palette, Seed: req.Seed}
	start := time.Now()
	res, err := s.pool.ColorEdges(ctx, g, opts)
	if s.afterJob != nil {
		s.afterJob()
	}
	if err != nil {
		s.failJob(w, err)
		return
	}
	if err := distec.Verify(g, res.Colors); err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("OUTPUT INVALID: %w", err))
		return
	}
	d, err := distec.NewDynamicFrom(g, res.Colors, distec.DynamicOptions{Options: opts, Pool: s.pool})
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	id, err := newSessionID()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	sess := &session{id: id, d: d}
	if s.cfg.dataDir != "" {
		// The session is durable from birth: its initial snapshot is on
		// disk before the client learns the ID, so a crash at any later
		// point recovers it.
		lg, err := persist.CreateLog(filepath.Join(s.cfg.dataDir, id), d.Snapshot, s.persistOptions())
		if err != nil {
			s.fail(w, http.StatusInternalServerError, fmt.Errorf("persist session: %w", err))
			return
		}
		sess.log = lg
		d.SetJournal(distec.JournalTo(lg))
	}
	sess.resident.Store(true)
	s.residentCount.Add(1)
	sess.touch()
	s.sessMu.Lock()
	// Re-check under the lock: concurrent creates may have raced past the
	// early bound.
	if len(s.sessions) >= maxSessions {
		s.sessMu.Unlock()
		s.dropSession(sess)
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("session limit %d reached", maxSessions))
		return
	}
	s.sessions[id] = sess
	s.sessMu.Unlock()
	s.creates.Inc()
	// The newcomer may push the resident set past the limit: passivate the
	// coldest sessions (never the one just created).
	s.enforceResidency(sess)
	s.respond(w, http.StatusOK, sessionResponse{
		SessionID:  id,
		Colors:     d.Colors(),
		Palette:    d.Palette(),
		Seq:        d.Seq(),
		Stats:      d.Stats(),
		Verified:   true,
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// handleSessionUpdate applies one update batch to a session as a job on the
// pool's shared lanes, verifying the maintained coloring before responding.
func (s *server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.rejectFollowing(w) {
		return
	}
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	// The body is checked before acquire: a malformed, empty or oversized
	// batch must not pay a rehydration (and passivate a neighbor) just to
	// be refused.
	var req updateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Updates) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty update batch"))
		return
	}
	if len(req.Updates) > maxUpdatesPerBatch {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch of %d updates exceeds the daemon's limit of %d", len(req.Updates), maxUpdatesPerBatch))
		return
	}
	if s.beforeUpdate != nil {
		s.beforeUpdate()
	}
	d, err := s.acquire(r.Context(), sess)
	if err != nil {
		s.failAcquire(w, err)
		return
	}
	if d.Edges()+len(req.Updates) > maxSessionEdges {
		s.fail(w, http.StatusConflict, fmt.Errorf("session graph at %d edges (tombstones included) would exceed the daemon's limit of %d; recreate the session to compact it", d.Edges(), maxSessionEdges))
		return
	}
	setJobSize(r.Context(), len(req.Updates))
	ctx, cancel := context.WithTimeout(r.Context(), jobTimeout(req.TimeoutMS))
	defer cancel()
	// The tracer rides the context into the session's repair engine (the
	// batch has no per-call Options); distec.Dynamic picks it up there.
	var tr *trace.Trace
	if tracedRequest(r) {
		tr = newRequestTrace(r.Context())
		ctx = trace.NewContext(ctx, tr)
	}

	sess.touch()
	sess.inflight.Add(1)
	start := time.Now()
	results, err := d.ApplyBatch(ctx, req.Updates)
	if errors.Is(err, distec.ErrSessionPassivated) {
		// The residency limit passivated the session between lookup and
		// batch. The interrupted attempt journaled nothing and its memory
		// state was discarded with the Dynamic, so rehydrating and replaying
		// the whole batch applies it exactly once.
		d2, aerr := s.acquire(ctx, sess)
		if aerr != nil {
			sess.inflight.Add(-1)
			sess.touch()
			s.failAcquire(w, aerr)
			return
		}
		d = d2
		results, err = d.ApplyBatch(ctx, req.Updates)
	}
	sess.inflight.Add(-1)
	sess.touch()
	s.updateLatency.Observe(time.Since(start).Seconds())
	s.countTiers(results)
	if s.afterJob != nil {
		s.afterJob()
	}
	if err != nil {
		// The applied prefix holds (the coloring reflects exactly it); tell
		// the client how far the batch got.
		err = fmt.Errorf("applied %d/%d updates: %w", len(results), len(req.Updates), err)
		switch {
		case errors.Is(err, distec.ErrSessionClosed):
			// The session was deleted or evicted while this batch was in
			// flight: it is gone, not malformed.
			s.closedRejects.Inc()
			s.fail(w, http.StatusGone, err)
		case errors.Is(err, distec.ErrJournal):
			// Applied in memory but not journaled: the session's memory
			// state has diverged from its durable state, and any further
			// acknowledged batch would journal with a sequence gap that
			// makes the whole log unrecoverable. Stop serving the session —
			// its files stay, so a restart recovers every batch that WAS
			// made durable.
			s.retireSession(r.PathValue("id"), sess)
			s.fail(w, http.StatusInternalServerError,
				fmt.Errorf("%w; session retired — restart the daemon to recover its last durable state", err))
		case errors.Is(err, distec.ErrSessionPassivated):
			// Passivated again between the retry's rehydrate and batch —
			// possible only under pathological residency pressure. The batch
			// is not applied; the client retries.
			s.fail(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, distec.ErrPaletteExhausted):
			s.fail(w, http.StatusConflict, err)
		default:
			s.failJob(w, err)
		}
		return
	}
	// Never report an unverified maintained coloring: the incremental
	// repair machinery is re-checked against the full graph on every batch.
	if err := d.Verify(); err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("OUTPUT INVALID: %w", err))
		return
	}
	var sum *trace.Summary
	if tr != nil {
		sum = s.observeTrace(tr)
	}
	s.respond(w, http.StatusOK, updateResponse{
		Results:    results,
		Seq:        d.Seq(),
		Stats:      d.Stats(),
		Verified:   true,
		DurationMS: float64(time.Since(start).Microseconds()) / 1000,
		Trace:      sum,
	})
}

// handleSessionGet reports a session's current coloring and stats.
func (s *server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.rejectFollowing(w) {
		return
	}
	sess, ok := s.session(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	sess.touch()
	d, err := s.acquire(r.Context(), sess)
	if err != nil {
		s.failAcquire(w, err)
		return
	}
	if err := d.Verify(); err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("OUTPUT INVALID: %w", err))
		return
	}
	s.respond(w, http.StatusOK, sessionResponse{
		SessionID: r.PathValue("id"),
		Colors:    d.Colors(),
		Palette:   d.Palette(),
		Seq:       d.Seq(),
		Stats:     d.Stats(),
		Verified:  true,
	})
}

// handleSessionDelete drops a session: closed (in-flight batches fail with
// ErrSessionClosed instead of mutating a dropped session) and its persisted
// files removed.
func (s *server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.rejectFollowing(w) {
		return
	}
	id := r.PathValue("id")
	s.sessMu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.sessMu.Unlock()
	if !ok {
		s.fail(w, http.StatusNotFound, errors.New("no such session"))
		return
	}
	s.dropSession(sess)
	s.deletes.Inc()
	s.respond(w, http.StatusOK, map[string]bool{"deleted": true})
}

// countTiers attributes each applied update to its service tier — the
// repair-tier split that shows how hard the palette is working (greedy is
// cheap, repairs bounded, augmentations the expensive last resort).
func (s *server) countTiers(results []distec.UpdateResult) {
	for _, r := range results {
		switch {
		case r.Color < 0:
			s.updateTiers["delete"].Inc()
		case r.Augmented:
			s.updateTiers["augmented"].Inc()
		case r.Repaired:
			s.updateTiers["repaired"].Inc()
		default:
			s.updateTiers["greedy"].Inc()
		}
	}
}

// decodeBody reads one size-bounded JSON request body into req, writing the
// error response (413 for oversized bodies, 400 otherwise) itself; a false
// return means the handler is done.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, err)
			return false
		}
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *server) session(id string) (*session, bool) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// failJob maps job errors to HTTP statuses, shared by the color and session
// handlers.
func (s *server) failJob(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		s.fail(w, 499, err) // client closed request
	case errors.Is(err, distec.ErrPoolClosed):
		s.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, distec.ErrProtocolPanic), errors.Is(err, distec.ErrRoundLimit):
		s.fail(w, http.StatusInternalServerError, err)
	default:
		s.fail(w, http.StatusBadRequest, err)
	}
}

// jobTimeout resolves a client timeout_ms to the job deadline, clamped to
// the server ceiling.
func jobTimeout(ms int) time.Duration {
	timeout := 60 * time.Second
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > maxJobTimeout {
			timeout = maxJobTimeout
		}
	}
	return timeout
}

// newSessionID returns an unguessable session handle.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

func (s *server) fail(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	s.respond(w, status, map[string]string{"error": err.Error()})
}

// respond writes one JSON response, first extending the connection's write
// deadline: the server's WriteTimeout clock starts when the request header
// is read, so a job that legitimately used its full budget would otherwise
// compute a result the connection can no longer write. Extension is best
// effort — test recorders don't support deadlines.
func (s *server) respond(w http.ResponseWriter, status int, v any) {
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(responseWriteBudget))
	writeJSON(w, status, v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// verifyExtension checks that every edge the server colored (partial[e] < 0)
// received a color from its list. Membership is a linear scan: the library
// only validates the PRUNED lists as sorted, so the client's original list
// may be unsorted yet still yield a valid (sorted-after-pruning) instance.
func verifyExtension(partial []int, lists [][]int, colors []int) error {
	for e, fixed := range partial {
		if fixed >= 0 {
			continue
		}
		found := false
		for _, c := range lists[e] {
			if c == colors[e] {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("edge %d colored %d outside its list", e, colors[e])
		}
	}
	return nil
}

func buildGraph(spec graphSpec) (*distec.Graph, error) {
	if spec.N < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", spec.N)
	}
	if spec.N > maxGraphNodes {
		return nil, fmt.Errorf("graph: node count %d exceeds the daemon's limit of %d", spec.N, maxGraphNodes)
	}
	g := distec.NewGraph(spec.N)
	for i, e := range spec.Edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("graph edge %d: %w", i, err)
		}
	}
	return g, nil
}
