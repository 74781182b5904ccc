package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/distec/distec"
	"github.com/distec/distec/internal/bench"
	"github.com/distec/distec/internal/graph"
)

// env is what a set-up leaves for the phases: the generated inputs, a
// running daemon and the two churn sessions created on it.
type env struct {
	*inputs
	nproc    int
	sessions []*session
	d        *daemon
	dataDir  string
	logPath  string
	ctl      *http.Client // control traffic: health, metrics, session reads around restarts
}

// body is one pre-encoded POST /v1/color request and the graph it carries.
type body struct {
	g    *distec.Graph
	json []byte
}

// inputs is everything generated from the seed.
type inputs struct {
	solveG      *distec.Graph
	miss, large []body
	hit         body
	churnG      []*distec.Graph
}

// subSeed derives an independent input seed per purpose from the run seed.
func subSeed(seed, purpose uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + purpose*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// generate builds every graph of the run and encodes the serve bodies.
func generate(cfg config) *inputs {
	in := &inputs{solveG: distec.RandomRegular(cfg.n, cfg.d, subSeed(cfg.seed, 1))}
	mk := func(n, d int, s uint64) body {
		g := distec.RandomRegular(n, d, s)
		return body{g: g, json: encode(map[string]any{"graph": graphSpec(g)})}
	}
	for i := 0; i < cfg.missBodies; i++ {
		in.miss = append(in.miss, mk(cfg.missN, cfg.missD, subSeed(cfg.seed, 100+uint64(i))))
	}
	for i := 0; i < cfg.largeBodies; i++ {
		in.large = append(in.large, mk(cfg.largeN, cfg.largeD, subSeed(cfg.seed, 200+uint64(i))))
	}
	in.hit = mk(cfg.missN, cfg.missD, subSeed(cfg.seed, 300))
	for i := 0; i < 2; i++ {
		in.churnG = append(in.churnG, distec.RandomRegular(cfg.churnN, cfg.churnD, subSeed(cfg.seed, 400+uint64(i))))
	}
	return in
}

// encode marshals a request body built from maps, slices and numbers only,
// which cannot fail to encode.
func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

type graphJSON struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

func graphSpec(g *graph.Graph) graphJSON {
	edges := make([][2]int, g.M())
	for e, ed := range g.Edges() {
		edges[e] = [2]int{int(ed.U), int(ed.V)}
	}
	return graphJSON{N: g.N(), Edges: edges}
}

// churnStreams generates the churn clients' update streams. They are the
// clients' script, not set-up of the system under test, so they are made
// once per run, outside the set-up timing.
func churnStreams(cfg config) [][]bench.EdgeOp {
	var out [][]bench.EdgeOp
	for i, g := range generate(cfg).churnG {
		out = append(out, bench.ChurnCapped(g, cfg.churnPerSecond*int(cfg.seconds.Seconds()), cfg.churnD, subSeed(cfg.seed, 500+uint64(i))))
	}
	return out
}

// setUp generates the inputs, boots a daemon on a fresh data dir and
// creates the churn sessions on it; it appends the set-up time (compiling
// excluded) and the generation time to setups and gens.
func setUp(ctx context.Context, cfg config, streams [][]bench.EdgeOp, i int, setups, gens *[]float64) (*env, error) {
	start := time.Now()
	e := &env{
		inputs:  generate(cfg),
		nproc:   runtime.NumCPU(),
		dataDir: filepath.Join(cfg.work, fmt.Sprintf("data-%d", i)),
		logPath: filepath.Join(cfg.work, fmt.Sprintf("edgecolord-%d.log", i)),
		ctl:     &http.Client{Timeout: time.Minute},
	}
	gen := time.Since(start)
	var err error
	if e.d, err = startDaemon(ctx, cfg.daemon, e.dataDir, e.logPath); err != nil {
		return nil, err
	}
	for k, g := range e.churnG {
		s, err := createSession(ctx, e.ctl, e.d.base, g, streams[k])
		if err != nil {
			e.close()
			return nil, err
		}
		e.sessions = append(e.sessions, s)
	}
	*setups = append(*setups, sec(time.Since(start)))
	*gens = append(*gens, sec(gen))
	return e, nil
}

// close tears the daemon down and removes its data.
func (e *env) close() {
	if e.d != nil {
		e.d.kill()
		e.d = nil
	}
	e.ctl.CloseIdleConnections()
	for _, s := range e.sessions {
		s.client.CloseIdleConnections()
	}
	os.RemoveAll(e.dataDir)
}

// fingerprint names the host and both binaries' source revisions.
func fingerprint(ctx context.Context, cfg config, e *env) map[string]any {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	var stats struct {
		BuildRevision string `json:"build_revision"`
		GoVersion     string `json:"go_version"`
	}
	_ = getJSON(ctx, e.ctl, e.d.base+"/v1/stats", &stats) // identity is informational
	return map[string]any{
		"cpu":             cpuModel(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"commit":          rev,
		"dirty":           dirty,
		"daemon_revision": stats.BuildRevision,
		"daemon_go":       stats.GoVersion,
		"workload":        cfg.name,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds.Seconds(),
		"trace":           cfg.trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
