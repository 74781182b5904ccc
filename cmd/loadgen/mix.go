package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// classes fixes the traffic-class order used everywhere: indices into the
// collector array, report rows, and the smooth weighted round-robin.
var classes = []string{"color", "cached", "churn", "storm"}

func classIndex(name string) int {
	for i, c := range classes {
		if c == name {
			return i
		}
	}
	return -1
}

type classWeight struct {
	class  int
	weight int
}

// parseClassMix parses "color=4,cached=3,churn=2,storm=1". Unlisted classes get
// weight 0 (disabled); at least one weight must be positive.
func parseClassMix(spec string) ([]classWeight, error) {
	var out []classWeight
	total := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-mix: %q is not class=weight", part)
		}
		idx := classIndex(strings.TrimSpace(name))
		if idx < 0 {
			return nil, fmt.Errorf("-mix: unknown class %q (want %s)", name, strings.Join(classes, ", "))
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-mix: bad weight %q for %s", val, name)
		}
		if w > 0 {
			out = append(out, classWeight{idx, w})
			total += w
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("-mix: no class has positive weight")
	}
	return out, nil
}

// wrr is smooth weighted round-robin: deterministic, and it interleaves
// classes instead of emitting each one's whole quota in a burst — an
// open-loop schedule should mix traffic the way production does.
type wrr struct {
	mix     []classWeight
	credits []int
	total   int
}

func newWRR(mix []classWeight) *wrr {
	w := &wrr{mix: mix, credits: make([]int, len(mix))}
	for _, cw := range mix {
		w.total += cw.weight
	}
	return w
}

func (w *wrr) next() int {
	best := 0
	for i, cw := range w.mix {
		w.credits[i] += cw.weight
		if w.credits[i] > w.credits[best] {
			best = i
		}
	}
	w.credits[best] -= w.total
	return w.mix[best].class
}

// slo is one declared objective: quantile of a class must not exceed wantMs.
type slo struct {
	class    string
	quantile string
	wantMs   float64
}

// parseSLOs parses "color:p99=500ms,churn:p999=1s". Durations use Go
// syntax; quantiles are p50, p99, or p999.
func parseSLOs(spec string) ([]slo, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []slo
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		classQ, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-slo: %q is not class:quantile=duration", part)
		}
		class, q, ok := strings.Cut(classQ, ":")
		if !ok || classIndex(class) < 0 {
			return nil, fmt.Errorf("-slo: %q needs a known class before ':'", part)
		}
		switch q {
		case "p50", "p99", "p999":
		default:
			return nil, fmt.Errorf("-slo: quantile %q (want p50, p99, or p999)", q)
		}
		d, err := time.ParseDuration(strings.TrimSpace(val))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("-slo: bad duration %q in %q", val, part)
		}
		out = append(out, slo{class, q, float64(d) / float64(time.Millisecond)})
	}
	return out, nil
}
