// Package core implements Batch-Biggest-B (Figure 1 of the paper): exact
// and progressive evaluation of a batch of vector queries against a stored
// linear transform of the data, sharing every retrieval across the batch and
// ordering retrievals by a penalty-derived importance function.
//
// The package is deliberately agnostic about where the per-query sparse
// coefficient vectors come from: wavelet rewriting (the common case, via
// NewWaveletPlan), prefix-sum corners, or any other linear
// storage/evaluation strategy (Section 1.2 of the paper) all produce a Plan
// the same way.
package core

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// Plan is the merged master list for a query batch (steps 2–3 of
// Batch-Biggest-B): the union of the per-query nonzero coefficient lists,
// grouped by storage key so each key is retrieved at most once.
//
// The master list is stored in CSR form — entry i is the distinct key
// keys[i] (ascending) whose (query, coefficient) references occupy
// queryIdx[offsets[i]:offsets[i+1]] and coeffs[offsets[i]:offsets[i+1]].
// Four flat arrays instead of a slice of per-entry slices keeps Exact and
// Step cache-linear and puts zero per-entry allocations on the heap.
//
// A Plan is immutable after construction and safe for concurrent use: any
// number of goroutines may evaluate it, start runs on it, or warm its
// per-penalty schedule cache (see schedule.go) at the same time.
type Plan struct {
	Labels []string

	// CSR master list, ascending key order.
	keys     []int
	offsets  []int32
	queryIdx []int32
	coeffs   []float64

	// totalQueryCoefficients is the sum of per-query nonzero counts — the
	// number of retrievals an unshared per-query evaluation would need.
	totalQueryCoefficients int

	// evalOnce guards the lazily-built per-query inverted entry lists used
	// by ExactParallel's apply phase (parallel.go).
	evalOnce sync.Once
	byQuery  [][]qref

	// shape is the sparsity-shape fingerprint hashed off the runs the plan was
	// merged from (template.go); the registry indexes bind templates by it.
	shape string

	// schedMu guards schedules and schedLRU, the per-penalty-fingerprint
	// cache of retrieval schedules and its recency list (schedule.go). The
	// cache is bounded by maxCachedSchedules with LRU eviction, mirroring
	// the plan registry's policy.
	schedMu   sync.Mutex
	schedules map[string]*scheduleSlot
	schedLRU  *list.List
}

// NewPlan merges the per-query sparse coefficient vectors into a master
// list. labels may be nil; otherwise it must have one label per vector.
// Construction parallelizes across GOMAXPROCS workers (see NewPlanParallel)
// and is deterministic: the resulting plan is identical however many workers
// run.
func NewPlan(vectors []sparse.Vector, labels []string) (*Plan, error) {
	return NewPlanParallel(vectors, labels, 0)
}

// NewPlanParallel is NewPlan with an explicit worker count (≤0 selects
// GOMAXPROCS). Workers sort disjoint blocks of the vectors into runs, which
// are then merged; the result is entry-for-entry identical for every count.
func NewPlanParallel(vectors []sparse.Vector, labels []string, workers int) (*Plan, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	if labels != nil && len(labels) != len(vectors) {
		return nil, fmt.Errorf("core: %d labels for %d queries", len(labels), len(vectors))
	}
	if labels == nil {
		labels = defaultLabels(len(vectors))
	}
	p, _, err := buildPlan(len(vectors), labels, vectorEmitter(vectors), workers, nil)
	return p, err
}

// NewWaveletPlan rewrites every query in the batch under the filter and
// merges the results — the standard wavelet instantiation. It returns an
// error if the filter lacks the vanishing moments for the batch degree,
// because that would silently destroy the sparsity the algorithm is built
// around (use NewPlan directly to opt into dense rewritings). Rewriting
// parallelizes across GOMAXPROCS workers (see NewWaveletPlanParallel) and is
// deterministic.
func NewWaveletPlan(batch query.Batch, f *wavelet.Filter) (*Plan, error) {
	return NewWaveletPlanParallel(batch, f, 0)
}

// NewWaveletPlanParallel is NewWaveletPlan with an explicit worker count
// (≤0 selects GOMAXPROCS). Query rewriting — the expensive part of planning
// — runs on a pool of workers over disjoint query blocks; the merge that
// follows sees the same runs whatever the count.
func NewWaveletPlanParallel(batch query.Batch, f *wavelet.Filter, workers int) (*Plan, error) {
	p, _, err := newWaveletPlan(batch, f, workers, nil)
	return p, err
}

// newWaveletPlan is the wavelet plan build behind NewWaveletPlanParallel and
// the plan registry, which passes its shape index as templateFor (see
// buildPlan).
func newWaveletPlan(batch query.Batch, f *wavelet.Filter, workers int, templateFor func(shape string) *Plan) (*Plan, bool, error) {
	if err := batch.Validate(); err != nil {
		return nil, false, err
	}
	if deg := batch.Degree(); !f.SupportsDegree(deg) {
		return nil, false, fmt.Errorf("core: filter %s (%d vanishing moments) cannot sparsely rewrite degree-%d queries; need filter length ≥ %d",
			f.Name, f.VanishingMoments(), deg, 2*deg+2)
	}
	labels := make([]string, len(batch))
	for i, q := range batch {
		labels[i] = q.Label
	}
	gen := func(qi int, emit func(key int, c float64)) error {
		if err := batch[qi].CoefficientsFunc(f, emit); err != nil {
			return fmt.Errorf("core: query %d: %w", qi, err)
		}
		return nil
	}
	return buildPlan(len(batch), labels, gen, workers, templateFor)
}

// NumQueries returns the batch size.
func (p *Plan) NumQueries() int { return len(p.Labels) }

// DistinctCoefficients returns the master-list length: the number of
// retrievals an exact shared evaluation performs.
func (p *Plan) DistinctCoefficients() int { return len(p.keys) }

// TotalQueryCoefficients returns the sum of per-query nonzero counts: the
// number of retrievals unshared per-query evaluation performs.
func (p *Plan) TotalQueryCoefficients() int { return p.totalQueryCoefficients }

// SharingFactor returns TotalQueryCoefficients / DistinctCoefficients — how
// many queries the average retrieved coefficient serves.
func (p *Plan) SharingFactor() float64 {
	if len(p.keys) == 0 {
		return 0
	}
	return float64(p.totalQueryCoefficients) / float64(len(p.keys))
}

// entryRefs returns entry i's (query index, coefficient) columns — views
// into the flat CSR arrays, owned by the plan.
func (p *Plan) entryRefs(i int) ([]int32, []float64) {
	lo, hi := p.offsets[i], p.offsets[i+1]
	return p.queryIdx[lo:hi], p.coeffs[lo:hi]
}

// ForEachEntry visits every master-list entry in ascending key order — the
// same order Importances reports values in. The slices are owned by the
// plan; callers must not modify them.
func (p *Plan) ForEachEntry(fn func(key int, queryIdx []int32, coeffs []float64)) {
	for i, key := range p.keys {
		idxs, cs := p.entryRefs(i)
		fn(key, idxs, cs)
	}
}

// Importances computes ι_p for every master-list entry under the penalty.
func (p *Plan) Importances(pen penalty.Penalty) []float64 {
	out := make([]float64, len(p.keys))
	// penalty.Penalty takes []int query indices; an entry references each
	// query at most once, so one batch-sized scratch serves every entry.
	idx := make([]int, 0, p.NumQueries())
	for i := range out {
		idxs, cs := p.entryRefs(i)
		idx = idx[:0]
		for _, qi := range idxs {
			idx = append(idx, int(qi))
		}
		out[i] = pen.Importance(idx, cs)
	}
	return out
}

// Exact evaluates the batch exactly by one pass over the master list
// (Batch-Biggest-B without the importance order — the pure I/O-sharing
// exact algorithm of Section 2.2). It performs exactly
// DistinctCoefficients retrievals. It is ExactCtx for stores that cannot
// fail: any retrieval error panics.
func (p *Plan) Exact(store storage.Store) []float64 {
	return p.ExactParallel(store, 1)
}

// Run is one progressive execution of Batch-Biggest-B. It is a cursor over
// the plan's cached retrieval schedule (the static pop order of the
// importance heap it replaced — see schedule.go) plus the progressive
// estimates. StepBatchCtx (fallible.go) is the one loop that advances it;
// every other stepping method is an adapter over it. Once the cursor
// reaches the end of the schedule the estimates are exact unless the run is
// Degraded.
type Run struct {
	plan  *Plan
	store storage.Store
	pen   penalty.Penalty
	sched *Schedule
	// cursor is the schedule position: entries sched.order[:cursor] have
	// been retrieved. It doubles as the retrieval count.
	cursor    int
	estimates []float64
	// batchVals is StepBatchCtx's reusable fetch buffer.
	batchVals []float64

	// skipped holds the schedule positions of entries whose retrieval failed
	// permanently (ascending, since the cursor only moves forward); the run
	// advanced past them in degraded mode. Nil until the first skip, so
	// fault-free runs carry no overhead.
	skipped []int

	// trace, when attached, receives the run's bound trajectory computed
	// with coefficient mass traceMass (obs.go). The metrics bundle is NOT
	// cached on the Run: step paths load the package pointer per call (one
	// relaxed atomic load, nil when unobserved), which keeps NewRun free of
	// calls and therefore inlinable — the 1-alloc run setup depends on it.
	trace     *obs.RunTrace
	traceMass float64
	// profile, when attached, receives the run's EXPLAIN ANALYZE rows: one
	// StepProfile per StepBatchCtx. Nil (the default) costs one nil check
	// per batch, preserving the 0-extra-alloc off path.
	profile *obs.QueryProfile
}

// NewRun prepares a progressive run: it looks up (or builds once) the
// plan's retrieval schedule under the penalty (step 4 of Batch-Biggest-B)
// and allocates the estimate vector. Sharing the schedule across runs makes
// this O(batch size) instead of the O(master list) heap initialization the
// per-run heap paid; concurrent NewRun calls on one plan are safe.
func NewRun(plan *Plan, pen penalty.Penalty, store storage.Store) *Run {
	return &Run{
		plan:      plan,
		store:     store,
		pen:       pen,
		sched:     plan.ScheduleFor(pen),
		estimates: make([]float64, plan.NumQueries()),
	}
}

// entryRetrieved reports whether master-list entry i has been retrieved:
// its schedule position lies before the cursor and it was not skipped by a
// failed retrieval.
func (r *Run) entryRetrieved(i int32) bool {
	sp := int(r.sched.pos[i])
	_, skipped := slices.BinarySearch(r.skipped, sp)
	return sp < r.cursor && !skipped
}

// Step retrieves the most important unretrieved entry — the next one in
// schedule order — and advances every query that needs it (step 5). It
// returns false when the computation is complete. A single step is a batch
// of one: a failed retrieval marks the entry skipped, exactly as StepCtx.
func (r *Run) Step() bool {
	ok, _ := r.StepCtx(context.Background()) // a background context never ends
	return ok
}

// StepN performs up to n steps and returns how many were executed.
func (r *Run) StepN(n int) int {
	done := 0
	for done < n && r.Step() {
		done++
	}
	return done
}

// RunToCompletion drains the schedule; afterwards Estimates holds exact
// results unless the run is Degraded.
func (r *Run) RunToCompletion() {
	_ = r.RunToCompletionCtx(context.Background()) // a background context never ends
}

// Done reports whether the cursor has drained the schedule. A done run's
// estimates are exact only when it is not Degraded — a degraded run skipped
// entries whose residual error WorstCaseBound still bounds.
func (r *Run) Done() bool { return r.cursor >= len(r.sched.order) }

// Retrieved returns the number of schedule steps taken so far: retrievals
// attempted, including the SkippedCount that failed.
func (r *Run) Retrieved() int { return r.cursor }

// Estimates returns the current progressive estimates. The slice is owned
// by the run; callers must not modify it (use Snapshot for a copy).
func (r *Run) Estimates() []float64 { return r.estimates }

// Snapshot returns a copy of the current progressive estimates.
func (r *Run) Snapshot() []float64 {
	out := make([]float64, len(r.estimates))
	copy(out, r.estimates)
	return out
}

// NextImportance returns ι_p of the most important unretrieved entry, or 0
// when the run is complete. Skipped entries are unretrieved: they sit before
// the cursor in the importance-descending schedule, so the first of them
// dominates everything at or after the cursor.
func (r *Run) NextImportance() float64 {
	if len(r.skipped) > 0 {
		return r.sched.importances[r.sched.order[r.skipped[0]]]
	}
	if r.cursor >= len(r.sched.order) {
		return 0
	}
	return r.sched.importances[r.sched.order[r.cursor]]
}

// WorstCaseBound returns the Theorem 1 bound K^α·ι_p(ξ′) on the penalty of
// the current progressive estimate over all databases whose transformed
// data vector has coefficient mass K = Σ_ξ|Δ̂[ξ]| equal to coefficientMass,
// with α the penalty's homogeneity degree and ξ′ the most important
// unretrieved wavelet. α need not be an integer (Lp-norm combinations and
// user penalties may have fractional degree); math.Pow handles the general
// case and is exact for the common α ∈ {1, 2}.
func (r *Run) WorstCaseBound(coefficientMass float64) float64 {
	next := r.NextImportance()
	if next == 0 {
		return 0
	}
	return math.Pow(coefficientMass, r.pen.Homogeneity()) * next
}

// RemainingImportance returns Σ ι_p(ξ) over the unretrieved entries — the
// trace(R) of the Theorem 2 expected-penalty formula. The schedule
// precomputes the value for every prefix with the same sequential
// subtraction the heap loop performed, so mid-run values are bit-identical
// to the retired heap implementation.
func (r *Run) RemainingImportance() float64 {
	var rem float64
	if r.cursor < len(r.sched.order) {
		rem = r.sched.remaining[r.cursor]
	}
	// Skipped entries are behind the cursor but unretrieved; add them back.
	// Fault-free runs take neither branch and stay bit-identical.
	for _, sp := range r.skipped {
		rem += r.sched.importances[r.sched.order[sp]]
	}
	return rem
}

// ExpectedPenalty returns the Theorem 2 estimate of the penalty of the
// current progressive estimate for a database whose transformed data vector
// is uniformly distributed on the sphere of the given radius in the
// domainCells-dimensional coefficient space:
//
//	E[p] = radius² · Σ_{ξ unretrieved} ι_p(ξ) / domainCells
//
// It is meaningful for quadratic penalties (homogeneity 2). Note the paper
// states the denominator as N^d−1; the exact sphere moment gives N^d (see
// the theorem tests).
func (r *Run) ExpectedPenalty(domainCells int, radius float64) float64 {
	if domainCells <= 0 {
		return 0
	}
	return radius * radius * r.RemainingImportance() / float64(domainCells)
}

// StepUntilBound advances the run until the Theorem 1 worst-case penalty
// bound K^α·ι_p(ξ′) drops to target or the run completes, returning the
// number of steps executed. coefficientMass is K = Σ|Δ̂[ξ]| (see
// WorstCaseBound). This is the "stop when the answer is provably good
// enough" interface the progressive guarantees enable.
func (r *Run) StepUntilBound(coefficientMass, target float64) int {
	steps := 0
	for !r.Done() && r.WorstCaseBound(coefficientMass) > target {
		r.Step()
		steps++
	}
	return steps
}

// RunWithCheckpoints advances the run, invoking fn at each requested
// retrieval count and once more at completion. Checkpoints may arrive in
// any order and may repeat: they are visited in ascending order, each at
// most once; counts below the run's current position are skipped and counts
// beyond the master list collapse into the completion callback.
func (r *Run) RunWithCheckpoints(points []int, fn func(retrieved int, estimates []float64)) {
	sorted := append([]int(nil), points...)
	slices.Sort(sorted)
	prev := -1
	for _, p := range sorted {
		if p < r.Retrieved() || p == prev {
			continue
		}
		prev = p
		r.StepN(p - r.Retrieved())
		fn(r.Retrieved(), r.estimates)
		if r.Done() {
			break
		}
	}
	if !r.Done() {
		r.RunToCompletion()
		fn(r.Retrieved(), r.estimates)
	}
}

// RoundRobin is the unshared baseline of Section 2.2: s independent
// instances of the single-query biggest-B strategy advanced in round-robin
// fashion. Each query orders its own coefficients by |q̂[ξ]| and every
// retrieval serves exactly one query, so coefficients needed by several
// queries are fetched repeatedly.
type RoundRobin struct {
	store     storage.Store
	lists     [][]sparse.Entry
	positions []int
	estimates []float64
	retrieved int
	turn      int
}

// NewRoundRobin builds the baseline from per-query coefficient vectors.
func NewRoundRobin(vectors []sparse.Vector, store storage.Store) (*RoundRobin, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	lists := make([][]sparse.Entry, len(vectors))
	for i, v := range vectors {
		lists[i] = v.Entries() // descending |coefficient|: single-query biggest-B
	}
	return &RoundRobin{
		store:     store,
		lists:     lists,
		positions: make([]int, len(vectors)),
		estimates: make([]float64, len(vectors)),
	}, nil
}

// Step advances one query by one coefficient, cycling through the batch. It
// returns false once every query is exact.
func (r *RoundRobin) Step() bool {
	n := len(r.lists)
	for tried := 0; tried < n; tried++ {
		qi := r.turn
		r.turn = (r.turn + 1) % n
		if r.positions[qi] >= len(r.lists[qi]) {
			continue
		}
		e := r.lists[qi][r.positions[qi]]
		r.positions[qi]++
		v := storage.Get(r.store, e.Key)
		r.retrieved++
		r.estimates[qi] += e.Val * v
		return true
	}
	return false
}

// RunToCompletion drains every per-query list.
func (r *RoundRobin) RunToCompletion() {
	for r.Step() {
	}
}

// Retrieved returns the number of (unshared) retrievals performed.
func (r *RoundRobin) Retrieved() int { return r.retrieved }

// Estimates returns the current progressive estimates (owned by the run).
func (r *RoundRobin) Estimates() []float64 { return r.estimates }
