package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the parallel half of the engine: worker-pool plan
// construction and the exact pass's per-query apply phase. Every parallel
// path is constructed to produce results *bit-identical* to its one-worker
// run (same floating-point operations in the same order), so callers can
// pick any worker count — the determinism tests in parallel_test.go pin this
// down.

// emitter produces the (key, coefficient) pairs of query qi. Emissions for
// one query must not repeat a key (the rewriters guarantee this).
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

// shardKeyHash spreads the structured key patterns of wavelet master lists
// (runs, strided levels) across shards (Fibonacci multiplicative hashing).
const shardKeyHash = 0x9E3779B97F4A7C15

// planEntry is the merge-time representation of one master-list entry; the
// finished plan flattens the per-entry slices into the CSR arrays.
type planEntry struct {
	key      int
	queryIdx []int32
	coeffs   []float64
}

// newPlanCSR flattens key-sorted merge entries into the plan's CSR layout.
func newPlanCSR(labels []string, entries []*planEntry, total int) *Plan {
	p := &Plan{
		Labels:                 append([]string(nil), labels...),
		keys:                   make([]int, len(entries)),
		offsets:                make([]int32, len(entries)+1),
		queryIdx:               make([]int32, 0, total),
		coeffs:                 make([]float64, 0, total),
		totalQueryCoefficients: total,
	}
	for i, e := range entries {
		p.keys[i] = e.key
		p.offsets[i] = int32(len(p.queryIdx))
		p.queryIdx = append(p.queryIdx, e.queryIdx...)
		p.coeffs = append(p.coeffs, e.coeffs...)
	}
	p.offsets[len(entries)] = int32(len(p.queryIdx))
	return p
}

// buildPlanParallel merges per-query coefficient emissions into a master
// list using a worker pool. Workers own contiguous query blocks and write
// into per-worker key-hash-sharded maps; shards are then merged concurrently
// (worker order preserves ascending query index) and the entries sorted into
// the canonical ascending-key order before CSR flattening. The result is
// entry-for-entry identical to the single-threaded merge.
func buildPlanParallel(n int, labels []string, gen emitter, workers int) (*Plan, error) {
	if m := coObs(); m != nil {
		start := time.Now()
		defer func() { m.planBuildSeconds.Observe(time.Since(start).Seconds()) }()
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		return buildPlanSeq(n, labels, gen)
	}

	nShards := nextPow2(4 * workers)
	shift := 64 - log2(uint64(nShards))
	shardOf := func(key int) int { return int((uint64(key) * shardKeyHash) >> shift) }

	type shardMap map[int]*planEntry
	locals := make([][]shardMap, workers)
	totals := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			maps := make([]shardMap, nShards)
			for s := range maps {
				maps[s] = make(shardMap)
			}
			locals[w] = maps
			for qi := lo; qi < hi; qi++ {
				qi32 := int32(qi)
				err := gen(qi, func(key int, c float64) {
					totals[w]++
					m := maps[shardOf(key)]
					e, ok := m[key]
					if !ok {
						e = &planEntry{key: key}
						m[key] = e
					}
					e.queryIdx = append(e.queryIdx, qi32)
					e.coeffs = append(e.coeffs, c)
				})
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	// Workers hold contiguous ascending query blocks and stop at their first
	// failing query, so the lowest-indexed worker error is exactly the error
	// the sequential merge would have returned.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Merge each shard's per-worker maps, workers pulling shard indices from
	// an atomic cursor. Appending worker 0's pairs first, then worker 1's,
	// … keeps every entry's query indices ascending, matching the sequential
	// query-order append.
	shardEntries := make([][]*planEntry, nShards)
	var cursor atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(cursor.Add(1)) - 1
				if s >= nShards {
					return
				}
				merged := locals[0][s]
				for w2 := 1; w2 < workers; w2++ {
					for key, e := range locals[w2][s] {
						dst, ok := merged[key]
						if !ok {
							merged[key] = e
							continue
						}
						dst.queryIdx = append(dst.queryIdx, e.queryIdx...)
						dst.coeffs = append(dst.coeffs, e.coeffs...)
					}
				}
				out := make([]*planEntry, 0, len(merged))
				for _, e := range merged {
					out = append(out, e)
				}
				shardEntries[s] = out
			}
		}()
	}
	wg.Wait()

	total, count := 0, 0
	for _, t := range totals {
		total += t
	}
	for _, se := range shardEntries {
		count += len(se)
	}
	entries := make([]*planEntry, 0, count)
	for _, se := range shardEntries {
		entries = append(entries, se...)
	}
	// Canonical deterministic base order (keys are distinct across shards).
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return newPlanCSR(labels, entries, total), nil
}

// buildPlanSeq is the single-threaded merge (steps 2–3 of Batch-Biggest-B).
func buildPlanSeq(n int, labels []string, gen emitter) (*Plan, error) {
	merged := make(map[int]*planEntry)
	total := 0
	for qi := 0; qi < n; qi++ {
		qi32 := int32(qi)
		err := gen(qi, func(key int, c float64) {
			total++
			e, ok := merged[key]
			if !ok {
				e = &planEntry{key: key}
				merged[key] = e
			}
			e.queryIdx = append(e.queryIdx, qi32)
			e.coeffs = append(e.coeffs, c)
		})
		if err != nil {
			return nil, err
		}
	}
	entries := make([]*planEntry, 0, len(merged))
	for _, e := range merged {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	return newPlanCSR(labels, entries, total), nil
}

// qref is one element of a query's inverted coefficient list: the master
// list entry holding the coefficient, in ascending entry order.
type qref struct {
	entry int32
	coeff float64
}

// buildEvalIndex lazily builds the per-query inverted entry lists used by
// ExactParallelCtx's apply phase. (The flat key list the fetch phase needs is
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

// applyEvalIndex is ExactParallelCtx's apply phase — the one exact
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

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func log2(n uint64) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
