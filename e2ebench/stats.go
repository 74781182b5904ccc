package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and sec convert durations to the float units the metrics report.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// tally counts the operations a run attempted and how many of them failed
// or did not verify; it becomes the result line's attempted/failed pair.
type tally struct {
	attempted, failed int
	firstErr          error
}

// add records one operation; a non-nil err counts it as failed.
func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// perRound keeps one sample list per round of a run. Its statistics are
// medians over rounds of a per-round statistic, so a burst of load from
// elsewhere on the host during one round does not carry the run's value.
type perRound [][]float64

func (p *perRound) add(round int, v float64) {
	for len(*p) <= round {
		*p = append(*p, nil)
	}
	(*p)[round] = append((*p)[round], v)
}

// q is the median over rounds of each round's q-quantile.
func (p perRound) q(q float64) float64 {
	var xs []float64
	for _, r := range p {
		if len(r) > 0 {
			xs = append(xs, quantile(r, q))
		}
	}
	return median(xs)
}

// all pools every round's samples.
func (p perRound) all() []float64 {
	var xs []float64
	for _, r := range p {
		xs = append(xs, r...)
	}
	return xs
}
