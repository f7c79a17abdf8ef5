package core

import (
	"fmt"
	"math"
	"math/bits"
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
// once into a sparse.Product, whose size is known before it is enumerated;
// the products are enumerated into runs — each query's (key, coefficient)
// pairs in ascending key order — laid end to end in one exactly sized slab;
// the shape fingerprint is hashed off the runs' keys, and the runs are merged
// by (key, query) straight into the CSR arrays, each allocated at its final
// size. When a resident plan already has the batch's sparsity shape, the
// same merge checks its stream against that plan's skeleton instead and
// allocates only the coefficients (template.go).

// emitter rewrites query qi into its product: its (key, coefficient) pairs,
// no key twice.
type emitter func(qi int) (sparse.Product, error)

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

// inBlocks runs fn over [0, n) split into one contiguous block per worker,
// on workers goroutines (inline when there is one), and waits for them.
func inBlocks(n, workers int, fn func(w, lo, hi int)) {
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	wg.Wait()
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

// runSet is a batch's runs, laid end to end in one slab: run qi is query
// qi's pairs in ascending key order, slab[start[qi]:start[qi+1]-1], and the
// pair after it is a sentinel whose key, MaxInt, is above every key
// checkKeyRange lets through.
type runSet struct {
	slab  []sparse.Entry
	start []int
}

// len returns the number of runs.
func (rs *runSet) len() int { return len(rs.start) - 1 }

// run returns run qi.
func (rs *runSet) run(qi int) []sparse.Entry { return rs.slab[rs.start[qi] : rs.start[qi+1]-1] }

// rewriteRuns calls gen exactly once per query and returns the runs, in a
// slab sized from the products before any is enumerated. Workers own
// contiguous query blocks in both phases; a run depends on its query alone,
// hence not on the worker count.
func rewriteRuns(n int, gen emitter, workers int) (*runSet, error) {
	workers = clampWorkers(workers, n)
	products := make([]sparse.Product, n)
	errs := make([]error, workers)
	inBlocks(n, workers, func(w, lo, hi int) {
		for qi := lo; qi < hi && errs[w] == nil; qi++ {
			products[qi], errs[w] = gen(qi)
		}
	})
	// Workers hold contiguous ascending query blocks and stop at their first
	// failing query, so the lowest-indexed worker error is exactly the error
	// a sequential rewrite would have returned.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rs := &runSet{start: make([]int, n+1)}
	for qi, p := range products {
		rs.start[qi+1] = rs.start[qi] + p.Len() + 1
	}
	rs.slab = make([]sparse.Entry, rs.start[n])
	for qi := range products {
		rs.slab[rs.start[qi+1]-1].Key = math.MaxInt
	}
	inBlocks(n, workers, func(_, lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			products[qi].Fill(rs.run(qi))
		}
	})
	return rs, checkKeyRange(rs)
}

// loserTree is the k-way merge of the runs by (key, query): a tournament
// over the runs whose internal nodes remember the loser of each match, so
// replacing the winner's head replays only its path to the root — ⌈log₂ k⌉
// comparisons a pair, where a binary heap's sift-down makes two a level.
// A head is compared as one integer, key<<qbits | query, so equal keys
// order by query without a second comparison.
type loserTree struct {
	runs  [][]sparse.Entry
	qbits int
	// pos[i] is the index of run i's head and head[i] the head itself; a
	// spent run's head is MaxInt, above every live one.
	pos  []int32
	head []int
	// node[0] is the winner's run; node[1:] hold the losers, node n's
	// children being 2n and 2n+1 and run i sitting at leaf k+i.
	node []int32
}

// queryBits is the number of low bits a merge head gives the query index
// for a batch of k queries; keys must fit in the rest (see checkKeyRange).
func queryBits(k int) int { return bits.Len(uint(k)) }

// checkKeyRange reports an error unless every key of the runs fits in a
// merge head beside its query index: |key| below 2^(63−queryBits), 2^54
// for the server's 256-query batches — far past any domain whose transform
// can be stored.
func checkKeyRange(rs *runSet) error {
	limit := 1 << (63 - queryBits(rs.len()))
	for qi := 0; qi < rs.len(); qi++ {
		if run := rs.run(qi); len(run) > 0 && (run[0].Key < -limit || run[len(run)-1].Key >= limit-1) {
			return fmt.Errorf("core: coefficient keys of a %d-query batch must lie in [%d, %d)", rs.len(), -limit, limit-1)
		}
	}
	return nil
}

func newLoserTree(runs [][]sparse.Entry) loserTree {
	k := len(runs)
	slab := make([]int32, 2*k)
	t := loserTree{runs: runs, qbits: queryBits(k), pos: slab[:k], head: make([]int, k), node: slab[k:]}
	// Enter the runs one by one: a head climbs from its leaf, playing every
	// occupied node on the way, and parks at the first empty one — which it
	// reaches only once its own subtree is complete, so every node ends up
	// holding the loser of the match between its two subtrees' winners.
	for n := range t.node {
		t.node[n] = -1
	}
	for qi := range runs {
		t.pos[qi] = -1
		t.advance(int32(qi))
		w := int32(qi)
		for n := (qi + k) / 2; n >= 1; n /= 2 {
			if t.node[n] < 0 {
				t.node[n], w = w, -1
				break
			}
			if t.head[t.node[n]] < t.head[w] {
				t.node[n], w = w, t.node[n]
			}
		}
		if w >= 0 {
			t.node[0] = w
		}
	}
	return t
}

// advance moves run qi's head to its next pair, or to MaxInt when it has
// none.
func (t *loserTree) advance(qi int32) {
	t.pos[qi]++
	if run := t.runs[qi]; int(t.pos[qi]) < len(run) {
		t.head[qi] = run[t.pos[qi]].Key<<t.qbits | int(qi)
	} else {
		t.head[qi] = math.MaxInt
	}
}

// pop advances the winning run and replays its path; the new winner is
// node[0].
func (t *loserTree) pop() {
	w := t.node[0]
	t.advance(w)
	hw := t.head[w]
	for n := (int(w) + len(t.runs)) / 2; n >= 1; n /= 2 {
		// Branch-free: which run wins a match is data, not a pattern.
		c := t.node[n]
		hc := t.head[c]
		loser := c
		if hc < hw {
			loser = w
		}
		if hc < hw {
			w, hw = c, hc
		}
		t.node[n] = loser
	}
	t.node[0] = w
}

// mergeRuns merges the runs by (key, query) — ascending key, and within a
// key ascending query index, the order the CSR layout stores — into a plan,
// one entry at a time. With tmpl nil it builds the four CSR arrays, each at
// its final size. With a template it compares the merged (key, query) stream
// against the template's skeleton entry by entry, allocates only the
// coefficient array and returns a view sharing that skeleton — or nil if the
// shapes differ. Labels and shape are the caller's to set.
func mergeRuns(rs *runSet, tmpl *Plan) *Plan {
	k := rs.len()
	total := len(rs.slab) - k
	p := &Plan{totalQueryCoefficients: total}
	if tmpl != nil {
		if k != tmpl.NumQueries() || total != len(tmpl.coeffs) {
			return nil
		}
		p.keys, p.offsets, p.queryIdx = tmpl.keys, tmpl.offsets, tmpl.queryIdx
	} else {
		p.queryIdx = make([]int32, total)
	}
	p.coeffs = make([]float64, total)
	m := merger{p: p, tmpl: tmpl, qs: make([]int32, k), vals: make([]float64, k)}
	var ok bool
	if k <= scanMax {
		ok = m.scan(rs)
	} else {
		ok = m.tree(rs)
	}
	if tmpl != nil {
		// Every entry the stream opened matched a template boundary; with equal
		// counts the boundary sets are the same, with fewer an entry was split.
		if !ok || m.entries != len(p.keys) {
			return nil
		}
		return p
	}
	// The distinct-key count is known only now: lay out keys and offsets at
	// their exact sizes. Reference r is the next pair of run queryIdx[r], so
	// walking the runs in that order finds each marked entry start's key.
	p.keys = make([]int, m.entries)
	p.offsets = make([]int32, m.entries+1)
	p.offsets[m.entries] = int32(total)
	next, e := append([]int(nil), rs.start[:k]...), 0
	for r, qi := range p.queryIdx {
		if qi < 0 {
			qi = ^qi
			p.queryIdx[r], p.keys[e], p.offsets[e] = qi, rs.slab[next[qi]].Key, int32(r)
			e++
		}
		next[qi]++
	}
	return p
}

// merger writes the merged stream into a plan's arrays one entry at a time,
// from output position k on. Building (no template), it marks each entry's
// first reference in queryIdx (^qi) for mergeRuns to lay out keys and
// offsets from. Against a template it checks each entry and stops at the
// first disagreement.
type merger struct {
	p, tmpl *Plan
	k       int // next output position
	entries int // entries written
	// qs and vals collect the entry being merged: its references' queries
	// and coefficients, in query order.
	qs   []int32
	vals []float64
}

// scanMax is the largest batch the merge scans: up to it, reading every
// run's head for each entry costs less than the tree's comparisons, whose
// outcomes the branch predictor cannot learn. (Measured on 2-D SUM
// partitions, the scan is ahead at 24 queries, level at 48 and behind from
// 96.)
const scanMax = 32

// scan merges by reading every run's head for each entry: the entry's key is
// the least head, and each run whose head holds it contributes a reference,
// in query order. The loop is branch-free in the data: a run advances by
// whether it matched, and a spent run's head is its sentinel.
func (m *merger) scan(rs *runSet) bool {
	pos := append([]int(nil), rs.start[:rs.len()]...)
	key := math.MaxInt
	for _, i := range pos {
		key = min(key, rs.slab[i].Key)
	}
	for total := len(m.p.coeffs); m.k < total; {
		c, next := 0, math.MaxInt
		for qi, i := range pos {
			head := rs.slab[i]
			m.qs[c], m.vals[c] = int32(qi), head.Val
			hit := 0
			if head.Key == key {
				hit = 1
			}
			c += hit
			i += hit
			pos[qi] = i
			next = min(next, rs.slab[i].Key)
		}
		if !m.entry(key, c) {
			return false
		}
		key = next
	}
	return true
}

// tree merges through a loser tree, collecting each entry's references as
// they pop.
func (m *merger) tree(rs *runSet) bool {
	runs := make([][]sparse.Entry, rs.len())
	for qi := range runs {
		runs[qi] = rs.run(qi)
	}
	t := newLoserTree(runs)
	for total := len(m.p.coeffs); m.k < total; {
		// A spent run's head, MaxInt, shifts to above every key.
		key, c := t.head[t.node[0]]>>t.qbits, 0
		for t.head[t.node[0]]>>t.qbits == key {
			qi := t.node[0]
			m.qs[c], m.vals[c] = qi, runs[qi][t.pos[qi]].Val
			c++
			t.pop()
		}
		if !m.entry(key, c) {
			return false
		}
	}
	return true
}

// entry writes one entry: its key and the c references collected in qs and
// vals.
func (m *merger) entry(key, c int) bool {
	p, r := m.p, m.k
	out := p.queryIdx[r : r+c]
	if m.tmpl == nil {
		copy(out, m.qs[:c])
		out[0] = ^out[0]
	} else if e := m.entries; e == len(p.keys) || p.keys[e] != key || int(p.offsets[e]) != r || !slices.Equal(out, m.qs[:c]) {
		return false
	}
	copy(p.coeffs[r:], m.vals[:c])
	m.k += c
	m.entries++
	return true
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
	inBlocks(nq, clampWorkers(workers, nq), func(_, lo, hi int) { apply(lo, hi) })
}
