package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/sparse"
)

// This file is the parallel half of the engine: plan construction (steps 2–3
// of Batch-Biggest-B) and the exact pass's per-query apply phase. Every
// parallel path is constructed to produce results *bit-identical* to its
// one-worker run (same floating-point operations in the same order), so
// the worker count (GOMAXPROCS; the determinism tests in parallel_test.go
// sweep others) never shows in a result.
//
// Plan construction is one flat pipeline: each query is rewritten exactly
// once into a run — its (key, coefficient) pairs in ascending key order —
// the shape fingerprint is hashed off the runs' keys, and the runs are merged
// by (key, query) straight into the CSR arrays. When a resident plan already
// has the batch's sparsity shape, the same merge checks its stream against
// that plan's skeleton instead and allocates only the coefficients
// (template.go).

// emitter produces the (key, coefficient) pairs of query qi. Emissions for
// one query must not repeat a key (the rewriters guarantee this). The order
// is free: an emission that does not arrive ascending is sorted, once, by
// the run that collects it.
type emitter func(qi int, emit func(key int, c float64)) error

// clampWorkers resolves a worker-count request: ≤0 selects GOMAXPROCS, and
// the count never exceeds the number of work items.
func clampWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// buildPlan is plan construction: rewrite every query once, then merge. A
// non-nil templateFor is asked for a resident plan of the batch's shape; when
// it has one and the merge confirms the shape, the result shares that plan's
// skeleton and bound reports true. The plan is entry-for-entry identical for
// every worker count and either way it was merged.
func buildPlan(n int, labels []string, gen emitter, workers int, templateFor func(shape string) *Plan) (p *Plan, bound bool, err error) {
	if m := coObs(); m != nil {
		start := time.Now()
		defer func() { m.planBuildSeconds.Observe(time.Since(start).Seconds()) }()
	}
	runs, err := rewriteRuns(n, gen, workers)
	if err != nil {
		return nil, false, err
	}
	shape := shapeOfRuns(runs)
	if templateFor != nil {
		if tmpl := templateFor(shape); tmpl != nil {
			p = mergeRuns(runs, tmpl)
		}
	}
	if bound = p != nil; !bound {
		p = mergeRuns(runs, nil)
	}
	p.Labels = append([]string(nil), labels...)
	p.shape = shape
	return p, bound, nil
}

// defaultLabels names queries q0, q1, … for callers that gave no labels.
func defaultLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("q%d", i)
	}
	return labels
}

// rewriteRuns calls gen exactly once per query and returns the runs: runs[qi]
// is query qi's pairs in ascending key order. Workers own contiguous query
// blocks; a build allocates per query, not per coefficient. A run depends on
// its query alone, hence not on the worker count.
func rewriteRuns(n int, gen emitter, workers int) ([][]sparse.Entry, error) {
	workers = clampWorkers(workers, n)
	runs := make([][]sparse.Entry, n)
	errs := make([]error, workers)
	rewriteBlock := func(w int) {
		var run []sparse.Entry
		ascending := true
		emit := func(key int, c float64) {
			if m := len(run); m > 0 && key <= run[m-1].Key {
				ascending = false
			}
			run = append(run, sparse.Entry{Key: key, Val: c})
		}
		for qi := w * n / workers; qi < (w+1)*n/workers; qi++ {
			// Queries of one batch are of a kind: size each run by the last.
			run, ascending = make([]sparse.Entry, 0, len(run)), true
			if err := gen(qi, emit); err != nil {
				errs[w] = err
				return
			}
			if !ascending {
				slices.SortFunc(run, func(a, b sparse.Entry) int { return cmp.Compare(a.Key, b.Key) })
			}
			runs[qi] = run
		}
	}
	if workers == 1 {
		rewriteBlock(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rewriteBlock(w)
			}(w)
		}
		wg.Wait()
	}
	// Workers hold contiguous ascending query blocks and stop at their first
	// failing query, so the lowest-indexed worker error is exactly the error
	// a sequential rewrite would have returned.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// runHead is a run's next unmerged pair in the merge heap.
type runHead struct {
	key int
	qi  int32
	pos int32
}

func (a runHead) before(b runHead) bool {
	return a.key < b.key || (a.key == b.key && a.qi < b.qi)
}

// siftDown restores the min-heap order below position i.
func siftDown(h []runHead, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// mergeRuns merges the runs by (key, query) — ascending key, and within a
// key ascending query index, the order the CSR layout stores — into a plan.
// With tmpl nil it builds the four CSR arrays. With a template it compares
// the merged (key, query) stream against the template's skeleton element by
// element, allocates only the coefficient array and returns a view sharing
// that skeleton — or nil if the shapes differ. Labels and shape are the
// caller's to set.
func mergeRuns(runs [][]sparse.Entry, tmpl *Plan) *Plan {
	total := 0
	h := make([]runHead, 0, len(runs))
	for qi, run := range runs {
		total += len(run)
		if len(run) > 0 {
			h = append(h, runHead{key: run[0].Key, qi: int32(qi)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	p := &Plan{totalQueryCoefficients: total}
	if tmpl != nil {
		if len(runs) != tmpl.NumQueries() || total != len(tmpl.coeffs) {
			return nil
		}
		p.keys, p.offsets, p.queryIdx = tmpl.keys, tmpl.offsets, tmpl.queryIdx
	} else {
		// The distinct-key count is not known before the merge; total bounds
		// it, and the exact-size copies below keep resident plans tight.
		p.keys = make([]int, 0, total)
		p.offsets = make([]int32, 0, total+1)
		p.queryIdx = make([]int32, total)
	}
	p.coeffs = make([]float64, total)
	entries := 0
	for k := 0; len(h) > 0; k++ {
		top := &h[0]
		run := runs[top.qi]
		newEntry := entries == 0 || top.key != p.keys[entries-1]
		if tmpl == nil {
			if newEntry {
				p.keys = append(p.keys, top.key)
				p.offsets = append(p.offsets, int32(k))
			}
			p.queryIdx[k] = top.qi
		} else if p.queryIdx[k] != top.qi || (newEntry &&
			(entries == len(p.keys) || p.keys[entries] != top.key || int(p.offsets[entries]) != k)) {
			return nil
		}
		if newEntry {
			entries++
		}
		p.coeffs[k] = run[top.pos].Val
		if top.pos++; int(top.pos) < len(run) {
			top.key = run[top.pos].Key
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	if tmpl == nil {
		p.keys = append([]int(nil), p.keys...)
		p.offsets = append(append(make([]int32, 0, entries+1), p.offsets...), int32(total))
	} else if entries != len(p.keys) {
		// Every entry the stream opened matched a template boundary; with equal
		// counts the boundary sets are the same, with fewer an entry was split.
		return nil
	}
	return p
}

// qref is one element of a query's inverted coefficient list: the master
// list entry holding the coefficient, in ascending entry order.
type qref struct {
	entry int32
	coeff float64
}

// buildEvalIndex lazily builds the per-query inverted entry lists used by
// the exact pass's apply phase. (The flat key list the fetch phase needs is
// part of the CSR layout itself.) One backing array keeps the inverted
// lists allocation-cheap.
func (p *Plan) buildEvalIndex() {
	p.evalOnce.Do(func() {
		counts := make([]int, p.NumQueries())
		for _, qi := range p.queryIdx {
			counts[qi]++
		}
		backing := make([]qref, len(p.queryIdx))
		p.byQuery = make([][]qref, p.NumQueries())
		off := 0
		for qi, c := range counts {
			p.byQuery[qi] = backing[off : off : off+c]
			off += c
		}
		for i := range p.keys {
			lo, hi := p.offsets[i], p.offsets[i+1]
			for k := lo; k < hi; k++ {
				qi := p.queryIdx[k]
				p.byQuery[qi] = append(p.byQuery[qi], qref{entry: int32(i), coeff: p.coeffs[k]})
			}
		}
	})
}

// applyEvalIndex is the exact pass's apply phase — the one exact
// accumulation: queries are partitioned across workers, so each query's
// estimate is accumulated by exactly one worker in ascending master-list
// order, the same floating-point operation sequence whatever the worker
// count. buildEvalIndex must have run.
func (p *Plan) applyEvalIndex(vals, est []float64, workers int) {
	apply := func(qlo, qhi int) {
		for qi := qlo; qi < qhi; qi++ {
			var sum float64
			for _, r := range p.byQuery[qi] {
				v := vals[r.entry]
				if v == 0 {
					continue
				}
				sum += r.coeff * v
			}
			est[qi] = sum
		}
	}
	nq := p.NumQueries()
	aw := clampWorkers(workers, nq)
	if aw == 1 {
		apply(0, nq)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < aw; w++ {
		lo, hi := w*nq/aw, (w+1)*nq/aw
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			apply(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
