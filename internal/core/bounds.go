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
// its maxima are precomputed there at block granularity (Schedule.blockMax,
// built and cached with the schedule) and a run keeps no bound state of its
// own; the entries between the cursor and the next block boundary and the
// run's few skipped entries are folded in per call. Every term is a max over
// |coefficients|, and the builtin max is exact and propagates NaN in any
// order, so a bound has the same bits however the set is split.

// pendingMax returns max |q̂ᵢ[ξ]| over the entries scheduled at or after
// cursor.
func (s *Schedule) pendingMax(p *Plan, i, cursor int) float64 {
	b, end := s.nextBoundary(cursor)
	m := s.blockMax[b*p.NumQueries()+i]
	for _, e := range s.order[cursor:end] {
		m = max(m, p.absCoeff(e, i))
	}
	return m
}

// pendingMaxes sets out[i] to pendingMax(p, i, cursor) for every query.
func (s *Schedule) pendingMaxes(p *Plan, cursor int, out []float64) {
	b, end := s.nextBoundary(cursor)
	copy(out, s.blockMax[b*len(out):])
	for _, e := range s.order[cursor:end] {
		p.foldAbs(e, out)
	}
}

// nextBoundary returns the first block boundary at or after cursor: its
// block index, and its step capped at the schedule's end.
func (s *Schedule) nextBoundary(cursor int) (b, step int) {
	b = (cursor + 1<<s.blockShift - 1) >> s.blockShift
	return b, min(b<<s.blockShift, len(s.order))
}

// absCoeff returns |q̂ᵢ| at master-list entry e, or 0 if the entry has no
// coefficient of query i.
func (p *Plan) absCoeff(e int32, i int) float64 {
	idxs, cs := p.entryRefs(int(e))
	if k, ok := slices.BinarySearch(idxs, int32(i)); ok {
		return math.Abs(cs[k])
	}
	return 0
}

// foldAbs folds the |coefficients| of master-list entry e into out, indexed
// by query.
func (p *Plan) foldAbs(e int32, out []float64) {
	idxs, cs := p.entryRefs(int(e))
	for k, qi := range idxs {
		out[qi] = max(out[qi], math.Abs(cs[k]))
	}
}

// QueryErrorBound returns the worst-case bound K·max_{ξ∉Ξ}|q̂_i[ξ]| on the
// current estimate of query i, for databases with coefficient mass
// K = Σ|Δ̂[ξ]| equal to coefficientMass. It returns 0 once every coefficient
// of the query has been retrieved (the estimate is exact).
func (r *Run) QueryErrorBound(i int, coefficientMass float64) float64 {
	m := r.sched.pendingMax(r.plan, i, r.cursor)
	for _, sp := range r.skipped {
		m = max(m, r.plan.absCoeff(r.sched.order[sp], i))
	}
	if m == 0 {
		return 0
	}
	return coefficientMass * m
}

// QueryErrorBounds returns the bound for every query in the batch.
func (r *Run) QueryErrorBounds(coefficientMass float64) []float64 {
	out := make([]float64, r.plan.NumQueries())
	r.sched.pendingMaxes(r.plan, r.cursor, out)
	// One pass over the skipped entries serves every query they touch.
	for _, sp := range r.skipped {
		r.plan.foldAbs(r.sched.order[sp], out)
	}
	for i, m := range out {
		if m != 0 {
			out[i] = coefficientMass * m
		}
	}
	return out
}
