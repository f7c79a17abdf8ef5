package core

import (
	"math"
	"slices"
)

// Per-query progressive error bounds: by Hölder's inequality the error of
// query i after retrieving the set Ξ satisfies
//
//	|err_i| = |Σ_{ξ∉Ξ} q̂_i[ξ]·Δ̂[ξ]| ≤ K · max_{ξ∉Ξ} |q̂_i[ξ]|,
//
// with K = Σ|Δ̂[ξ]|, and the bound is attained by a point-mass database —
// the per-query analogue of Theorem 1's batch bound. These are the error
// bars a progressive UI can draw next to each estimate.
//
// The unretrieved set of a run is everything at or after its cursor plus the
// entries it skipped. The first part is a pure function of the schedule, so
// its maxima are precomputed there (Schedule.qmax, built and cached with the
// schedule) and a run keeps no bound state of its own; the second part is
// the run's few skipped entries, folded in per call.

// pendingMax returns max |q̂ᵢ[ξ]| over the entries scheduled at or after
// cursor: the suffix maximum at query i's first schedule position ≥ cursor.
func (s *Schedule) pendingMax(i, cursor int) float64 {
	lo, hi := s.qoff[i], s.qoff[i+1]
	k, _ := slices.BinarySearch(s.qpos[lo:hi], int32(cursor))
	if int(lo)+k == int(hi) {
		return 0
	}
	return s.qmax[int(lo)+k]
}

// QueryErrorBound returns the worst-case bound K·max_{ξ∉Ξ}|q̂_i[ξ]| on the
// current estimate of query i, for databases with coefficient mass
// K = Σ|Δ̂[ξ]| equal to coefficientMass. It returns 0 once every coefficient
// of the query has been retrieved (the estimate is exact).
func (r *Run) QueryErrorBound(i int, coefficientMass float64) float64 {
	m := r.sched.pendingMax(i, r.cursor)
	for _, sp := range r.skipped {
		idxs, cs := r.plan.entryRefs(int(r.sched.order[sp]))
		if k, ok := slices.BinarySearch(idxs, int32(i)); ok {
			m = max(m, math.Abs(cs[k]))
		}
	}
	if m == 0 {
		return 0
	}
	return coefficientMass * m
}

// QueryErrorBounds returns the bound for every query in the batch.
func (r *Run) QueryErrorBounds(coefficientMass float64) []float64 {
	out := make([]float64, r.plan.NumQueries())
	for i := range out {
		out[i] = r.sched.pendingMax(i, r.cursor)
	}
	// One pass over the skipped entries serves every query they touch.
	for _, sp := range r.skipped {
		idxs, cs := r.plan.entryRefs(int(r.sched.order[sp]))
		for k, qi := range idxs {
			out[qi] = max(out[qi], math.Abs(cs[k]))
		}
	}
	for i, m := range out {
		if m != 0 {
			out[i] = coefficientMass * m
		}
	}
	return out
}
