package core

import (
	"errors"
	"fmt"

	"repro/internal/sparse"
)

// Parameterized range templates: a Plan's CSR skeleton (keys, offsets,
// queryIdx) is fully determined by the per-query key *sets* — the sparsity
// shape — and is independent of the coefficient values. Batches that share a
// shape with an existing plan therefore only need new coefficients, not new
// skeleton arrays: the merge (mergeRuns, parallel.go) verifies its (key,
// query) stream against the template instead of building, and the result is
// bit-identical to a plan built from scratch for the same vectors. The plan
// registry (registry.go) indexes templates by shape fingerprint to find
// candidates; the fingerprint is only a hint, the merge is the proof.

// ErrShapeMismatch reports that a batch's sparsity shape differs from the
// template plan's, so the CSR skeleton cannot be reused. Callers fall back
// to a full build.
var ErrShapeMismatch = errors.New("core: batch sparsity shape does not match template plan")

// vectorEmitter emits materialized per-query vectors — in hash order, so
// every run sorts itself.
func vectorEmitter(vectors []sparse.Vector) emitter {
	return func(qi int, emit func(key int, c float64)) error {
		for key, c := range vectors[qi] {
			emit(key, c)
		}
		return nil
	}
}

// Bind re-weights the template against new per-query coefficient vectors,
// returning a lightweight plan view that shares this plan's CSR skeleton
// (keys, offsets, query references) and owns only its coefficient array and
// labels. The vectors must have exactly the template's sparsity shape: the
// same number of queries and, per query, the same key set. On any deviation
// Bind returns ErrShapeMismatch (wrapped) and the caller should build a
// fresh plan.
//
// The returned plan is bit-identical to NewPlan(vectors, labels): the same
// entries in the same order with the same coefficient values, so schedules,
// runs and exact evaluations on it match a from-scratch plan float-for-float.
// labels may be nil (defaults to q0, q1, … as in NewPlan).
func (p *Plan) Bind(vectors []sparse.Vector, labels []string) (*Plan, error) {
	if labels != nil && len(labels) != len(vectors) {
		return nil, fmt.Errorf("core: %d labels for %d queries", len(labels), len(vectors))
	}
	if labels == nil {
		labels = defaultLabels(len(vectors))
	}
	// The registry's path with this plan as the only template on offer; a
	// vector emitter cannot fail.
	view, bound, _ := buildPlan(len(vectors), labels, vectorEmitter(vectors), 0, func(string) *Plan { return p })
	if !bound {
		return nil, fmt.Errorf("%w: %d-query, %d-coefficient template", ErrShapeMismatch, p.NumQueries(), len(p.coeffs))
	}
	return view, nil
}

// shapeOfRuns hashes the sparsity shape of a batch's runs: the number of
// queries and, per query, its length and ascending keys (word-at-a-time
// FNV-1a). Two batches share a fingerprint exactly when (hash collisions
// aside) a plan built for one can serve the other by re-weighting. Values
// are ignored.
func shapeOfRuns(runs [][]sparse.Entry) string {
	h := uint64(14695981039346656037)
	mix := func(v int) { h = (h ^ uint64(v)) * 1099511628211 }
	mix(len(runs))
	for _, run := range runs {
		mix(len(run))
		for _, e := range run {
			mix(e.Key)
		}
	}
	return fmt.Sprintf("shape:%016x", h)
}

// ShapeFingerprint is the shape fingerprint a plan built from the vectors
// carries (see ShapeOf).
func ShapeFingerprint(vectors []sparse.Vector) string {
	runs, _ := rewriteRuns(len(vectors), vectorEmitter(vectors), 0) // a vector emitter cannot fail
	return shapeOfRuns(runs)
}

// ShapeOf returns the plan's shape fingerprint, hashed off the runs it was
// merged from; a bound view carries its template's.
func (p *Plan) ShapeOf() string { return p.shape }
