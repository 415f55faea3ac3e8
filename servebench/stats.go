package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// supported reports whether a sample of n values has at least minBeyond
// values beyond its q-quantile (q in per mille, so 990 is the p99).
func supported(n, perMille int) bool {
	rank := (perMille*n + 999) / 1000 // nearest-rank position, 1-based
	return n-rank >= minBeyond
}

// quantile returns the nearest-rank q-quantile (q in per mille) of xs and
// whether the sample supports it. xs is sorted in place; +Inf values (failed
// or refused requests) sort last and count against the percentile.
func quantile(xs []float64, perMille int) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := max(1, (perMille*n+999)/1000)
	return xs[rank-1], supported(n, perMille)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// median returns the median of xs (0 when empty), leaving xs unchanged.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is one [start, end) span of time, relative to a trace's base.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (sub-batches applied
// concurrently) or spill past the parent; each instant counts once and
// only inside the parent.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inf is the latency a failed or refused request counts as.
var inf = math.Inf(1)
