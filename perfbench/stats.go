package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting a copy; NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method); it needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based order, interpolated between
		// its neighbours (clamped to the inner pairs, as Python does).
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// searchSample is one search as the window statistics see it.
type searchSample struct {
	start time.Duration // since the load began
	ms    float64       // latency
	ok    bool          // answered with 200
}

// undisturbedWindows splits a load of length d into windows of the
// given width by request start time and returns, over the windows that
// answered at least keep times as many searches as the run's
// 90th-percentile window, the answered searches per second and the
// latency p50 and p95 of their searches pooled, and how many windows
// that is. The machine's speed drops by a third and more for seconds at
// a time while other tenants are busy; the windows such a spell slows
// are left out, so the figures describe the program rather than how
// busy the machine was. In a run without such spells every window is
// kept.
func undisturbedWindows(samples []searchSample, d, width time.Duration, keep float64) (qps, p50, p95 float64, kept int) {
	n := max(int(d/width), 1)
	lat := make([][]float64, n)
	answered := make([]float64, n)
	for _, s := range samples {
		w := min(int(s.start/width), n-1)
		lat[w] = append(lat[w], s.ms)
		if s.ok {
			answered[w]++
		}
	}
	floor := keep * percentile(append([]float64(nil), answered...), 90)
	var pooled []float64
	total := 0.0
	for w := range lat {
		if answered[w] >= floor {
			total += answered[w]
			kept++
			pooled = append(pooled, lat[w]...)
		}
	}
	qps = total / (float64(kept) * width.Seconds())
	return qps, percentile(pooled, 50), percentile(pooled, 95), kept
}

// recallAt returns |got ∩ truth| / len(truth): the share of the exact
// nearest neighbors the answer found.
func recallAt(got []int32, truth []int32) float64 {
	if len(truth) == 0 {
		return 1
	}
	hit := 0
	for _, t := range truth {
		for _, g := range got {
			if g == t {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(truth))
}
