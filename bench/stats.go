package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between order statistics, so a median over a few hundred
// drains does not jump by a whole sample when one more drain fits the pass.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// supported reports whether n samples carry the p-quantile: a percentile is
// only stated when at least ten samples lie beyond it (p90 needs 100 drains,
// p99 needs 1 000).
func supported(p float64, n int) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

// quantile sorts a copy of xs and returns its p-quantile.
func quantile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentile(sorted, p)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the p99 whatever the sample size. Only ungated rows use it; they
// are printed beside their sample count (client.drains, client.ingests),
// and a half-run of a few hundred drains does not support a p99 by the rule
// above, so read it as "near the worst seen".
func tail(xs []float64) float64 { return quantile(xs, 0.99) }

// boundPoint is one SSE event of a drain as the bound-vs-time curve sees it.
type boundPoint struct {
	atMS      float64 // request write → event read
	retrieved int
	maxBound  float64 // max_i bound_i; 0 on the exact `done`
}

// tboundCrossing finds the first event whose largest Theorem-1 bound is at
// most eps × the largest final answer, post hoc: the final answers are only
// known at `done`. It returns the event's index, or -1 if none crosses
// (cannot happen on an exact drain, whose `done` carries bound 0).
func tboundCrossing(points []boundPoint, finalEstimates []float64, eps float64) int {
	var scale float64
	for _, e := range finalEstimates {
		scale = math.Max(scale, math.Abs(e))
	}
	limit := eps * scale
	for i, p := range points {
		if p.maxBound <= limit {
			return i
		}
	}
	return -1
}

// maxPairwiseRel is the largest |a−b| / min(|a|,|b|) over all pairs: the
// same-code disagreement `-aa` reports.
func maxPairwiseRel(xs []float64) float64 {
	var worst float64
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			base := math.Min(math.Abs(xs[i]), math.Abs(xs[j]))
			if base == 0 {
				continue
			}
			worst = math.Max(worst, math.Abs(xs[i]-xs[j])/base)
		}
	}
	return worst
}
