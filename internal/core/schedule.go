package core

import (
	"container/list"
	"math"
	"math/bits"
	"sync"

	"repro/internal/penalty"
)

// Schedule is the static retrieval order of Batch-Biggest-B for one
// (plan, penalty) pair. Importances are fixed for the lifetime of a plan,
// so the entire pop sequence of the importance heap the original
// implementation drained is computable once, up front, by a sort under the
// heap's strict total order: importance descending, key ascending. Keys are
// distinct within a plan, so the order — and therefore every progressive
// estimate — is fully deterministic and identical to the heap's.
//
// A Schedule is immutable and shared: it is built at most once per penalty
// fingerprint (see Plan.ScheduleFor) and read concurrently by every run on
// the plan.
type Schedule struct {
	// order[j] is the master-list entry retrieved at step j. A run has
	// retrieved the entries at steps before its cursor, bar the ones it
	// skipped, which replaces the per-run popped bitmap the heap
	// implementation allocated.
	order []int32
	// keys[j] is the storage key retrieved at step j — the schedule-order
	// view of plan.keys, materialized so StepBatch can hand a subslice
	// straight to storage.BatchGet without per-batch copying.
	keys []int
	// importances[i] is ι_p of master-list entry i (plan order, matching
	// Plan.Importances).
	importances []float64
	// remaining[j] is Σ ι_p over entries not yet retrieved after j steps
	// (len = number of entries + 1; remaining[n] is the residual of the
	// subtraction chain, reported as exactly 0 by the run). It is computed
	// by sequentially subtracting importances in retrieval order — the same
	// float operation sequence the heap loop performed — so mid-run values
	// are bit-identical to the retired implementation, where a suffix sum
	// would not be.
	remaining []float64

	// The per-query error-bound index (bounds.go): a (block × query)
	// suffix-max table. Block b holds steps [b·B, (b+1)·B), B = 1<<blockShift
	// (blockShiftFor), and blockMax[b*nq+i] is the largest |q̂ᵢ[ξ]| retrieved
	// at step b·B or later; the row past the last block is zeros. A bound at
	// any cursor is the row at the next boundary folded with the fewer than B
	// entries before it. B ≥ nq, so the table is at most n + 2·nq floats,
	// built with the schedule and shared by every run on it.
	blockShift int
	blockMax   []float64
}

// buildSchedule computes the retrieval schedule for the plan under the
// penalty: the importance vector, the sorted order, the per-prefix
// remaining-importance chain and the per-query bound index.
// Importances split across workers by entry; once the order is known, the
// chain and the bound index are built side by side. Every value is computed
// exactly as one goroutine would.
func buildSchedule(p *Plan, pen penalty.Penalty) *Schedule {
	n := len(p.keys)
	s := &Schedule{
		order:       make([]int32, n),
		keys:        make([]int, n),
		importances: make([]float64, n),
		remaining:   make([]float64, n+1),
	}
	inBlocks(n, workersFor(n), func(_, lo, hi int) {
		p.importancesInto(s.importances[lo:hi], pen, lo)
	})
	scheduleOrder(s.importances, s.order)
	if workersFor(n) < 2 {
		s.chain(p)
		s.boundIndex(p)
		return s
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.chain(p)
	}()
	s.boundIndex(p)
	wg.Wait()
	return s
}

// parallelMin is the number of items below which a schedule build step
// stays on one goroutine: under it the work is cheaper than a hand-off.
const parallelMin = 1024

// workersFor is the worker count for a step over n items: one per
// parallelMin of them, at most GOMAXPROCS.
func workersFor(n int) int { return clampWorkers(0, n/parallelMin) }

// chain fills the schedule-order keys and the remaining-importance chain.
// The heap seeded its running total by summing importances in plan
// (ascending-key) order, then subtracted the popped entry's importance each
// step; this replays exactly that operation sequence.
func (s *Schedule) chain(p *Plan) {
	total := 0.0
	for _, imp := range s.importances {
		total += imp
	}
	s.remaining[0] = total
	for j, e := range s.order {
		s.keys[j] = p.keys[e]
		s.remaining[j+1] = s.remaining[j] - s.importances[e]
	}
}

// boundIndex builds the per-query error-bound index: one forward pass over
// the schedule folds each entry's |coefficients| into its block's row, then
// one backward pass turns the rows into suffix maxima. Every cell is a max
// over a set of |coefficients|, so it does not depend on the fold order.
func (s *Schedule) boundIndex(p *Plan) {
	nq := p.NumQueries()
	s.blockShift = blockShiftFor(nq)
	nb := (len(s.order) + 1<<s.blockShift - 1) >> s.blockShift
	s.blockMax = make([]float64, (nb+1)*nq)
	for j, e := range s.order {
		p.foldAbs(e, s.blockMax[(j>>s.blockShift)*nq:])
	}
	for b := nb - 1; b >= 0; b-- {
		row, next := s.blockMax[b*nq:(b+1)*nq], s.blockMax[(b+1)*nq:]
		for i := range row {
			row[i] = max(row[i], next[i])
		}
	}
}

// blockShiftFor is log₂ of the bound index's block size for nq queries: the
// larger of 64 and the next power of two ≥ nq. Scheduler slices are 512
// retrievals, a multiple of the block for any batch of up to 512 queries,
// so a bound read at a slice end scans nothing.
func blockShiftFor(nq int) int {
	return max(6, bits.Len(uint(max(nq, 1)-1)))
}

// scheduleOrder fills order with the entries 0..n-1 in retrieval order:
// importance descending, entry (hence key) ascending. Entries are distinct,
// so that order is strict and total, and it is the one permutation the
// importance heap would have popped.
//
// It is a stable LSD radix sort on rank keys (rankKey): a key sorts
// ascending exactly as its importance sorts descending, and the input runs
// in entry order, so equal importances keep it — the same permutation a
// comparison sort under (importance descending, entry ascending) finds.
// With two workers for n (workersFor), the two halves of the entries sort
// side by side and a merge that takes the lower half's entry on equal keys
// joins them, which keeps that order. The rank keys and the entry ids
// being sorted live in transient buffers of 2n words and n entries.
func scheduleOrder(imps []float64, order []int32) {
	n := len(imps)
	keys, scratch := make([]uint64, 2*n), make([]int32, n)
	for i, imp := range imps {
		keys[i], scratch[i] = rankKey(imp), int32(i)
	}
	if workersFor(n) < 2 {
		radixByRank(keys[:n], scratch, keys[n:], order)
		copy(order, scratch)
		return
	}
	mid := n / 2
	inBlocks(2, 2, func(w, _, _ int) {
		lo, hi := w*mid, mid+w*(n-mid)
		radixByRank(keys[lo:hi], scratch[lo:hi], keys[n+lo:n+hi], order[lo:hi])
	})
	ka, a := keys[:mid], scratch[:mid]
	kb, b := keys[mid:n], scratch[mid:]
	for j := range order {
		if len(b) == 0 || len(a) > 0 && ka[0] <= kb[0] {
			order[j], ka, a = a[0], ka[1:], a[1:]
		} else {
			order[j], kb, b = b[0], kb[1:], b[1:]
		}
	}
}

// radixByRank stably sorts keys, and ids alongside, one byte a pass from the
// lowest: eight passes at most, and a byte that is the same in every key
// (the sign and top exponent bits of non-negative importances, say) is
// skipped. spareKeys and spareIDs (as long as keys) are overwritten; the
// result is in keys and ids.
func radixByRank(keys []uint64, ids []int32, spareKeys []uint64, spareIDs []int32) {
	if len(keys) == 0 {
		return
	}
	var counts [8][256]int
	for _, k := range keys {
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	srcK, dstK, src, dst := keys, spareKeys, ids, spareIDs
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		sum := 0
		for b, cnt := range c {
			c[b], sum = sum, sum+cnt
		}
		for i, k := range srcK {
			b := byte(k >> shift)
			dstK[c[b]], dst[c[b]] = k, src[i]
			c[b]++
		}
		srcK, dstK, src, dst = dstK, srcK, dst, src
	}
	if &src[0] != &ids[0] {
		copy(keys, srcK)
		copy(ids, src)
	}
}

// rankKey maps an importance to a key whose ascending unsigned order is the
// importance's descending order. −0 is folded onto +0 first, since the two
// compare equal. The float's bits order like a sign-magnitude integer, so
// flipping every bit of a negative and only the sign bit of a non-negative
// value makes them ascend with the value; the complement then descends.
// A NaN, which compares with nothing, sorts before +Inf or after −Inf by its
// sign bit, the same on every build.
func rankKey(imp float64) uint64 {
	b := math.Float64bits(imp)
	if b == 1<<63 { // −0
		b = 0
	}
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// KeyOrder returns a copy of the schedule's storage keys in retrieval
// order — keys[j] is retrieved at step j. It is the exported view consumed
// by the persistent layout writer, which organizes coefficients on disk in
// exactly this order so a progressive drain becomes a sequential scan. The
// copy keeps the shared Schedule immutable.
func (s *Schedule) KeyOrder() []int {
	return append([]int(nil), s.keys...)
}

// scheduleSlot is one cache cell: the sync.Once lets the build run outside
// the plan's schedule mutex while still happening exactly once.
type scheduleSlot struct {
	key  string
	elem *list.Element
	once sync.Once
	s    *Schedule
}

// maxCachedSchedules bounds the per-plan schedule cache. Long-lived servers
// see arbitrarily many distinct penalty fingerprints (weighted penalties
// keyed by client-supplied weights, say), and before this bound the cache
// grew one schedule per fingerprint forever. Eviction is LRU, the same
// policy as the plan registry; an evicted schedule that is still referenced
// by in-flight runs stays valid (schedules are immutable) and is simply
// rebuilt on the next request. Variable rather than const so tests can
// shrink it in-package.
var maxCachedSchedules = 64

// scheduleSlotFor returns (creating if needed) the cache slot for a penalty
// fingerprint, maintaining LRU recency and the cache bound. The boolean
// reports whether the slot already existed. Eviction count is returned for
// metric accounting outside the lock.
func (p *Plan) scheduleSlotFor(key string) (slot *scheduleSlot, hit bool, evicted int) {
	p.schedMu.Lock()
	if p.schedules == nil {
		p.schedules = make(map[string]*scheduleSlot)
		p.schedLRU = list.New()
	}
	slot, hit = p.schedules[key]
	if hit {
		p.schedLRU.MoveToFront(slot.elem)
	} else {
		slot = &scheduleSlot{key: key}
		slot.elem = p.schedLRU.PushFront(slot)
		p.schedules[key] = slot
		for len(p.schedules) > maxCachedSchedules {
			back := p.schedLRU.Back()
			old := back.Value.(*scheduleSlot)
			delete(p.schedules, old.key)
			p.schedLRU.Remove(back)
			evicted++
		}
	}
	p.schedMu.Unlock()
	return slot, hit, evicted
}

// ScheduleFor returns the plan's retrieval schedule under the penalty,
// building and caching it on first use. The cache is keyed by
// penalty.Fingerprint, so distinct penalty values with the same importance
// function share one schedule; it is bounded (maxCachedSchedules) with LRU
// eviction. Safe for concurrent use: many goroutines may request schedules
// (same or different penalties) at once and each resident schedule is built
// exactly once.
func (p *Plan) ScheduleFor(pen penalty.Penalty) *Schedule {
	slot, ok, evicted := p.scheduleSlotFor(pen.Fingerprint())
	if m := coObs(); m != nil {
		if ok {
			m.schedCacheHits.Inc()
		} else {
			m.schedCacheMisses.Inc()
		}
		if evicted > 0 {
			m.schedCacheEvictions.Add(int64(evicted))
		}
		// Run accounting lives here rather than in NewRun: NewRun performs
		// exactly one schedule lookup, and keeping it call-free preserves its
		// inlinability (a non-inlined NewRun heap-allocates every Run, even
		// with observation off).
		m.runsStarted.Inc()
	}
	slot.once.Do(func() { slot.s = buildSchedule(p, pen) })
	return slot.s
}

// warmSchedule builds and caches the schedule under pen without touching
// run or cache metrics — the plan registry uses it to attach schedules to
// prepared plans at build time, which is preparation, not a run.
func (p *Plan) warmSchedule(pen penalty.Penalty) {
	slot, _, _ := p.scheduleSlotFor(pen.Fingerprint())
	slot.once.Do(func() { slot.s = buildSchedule(p, pen) })
}

// cachedSchedules reports how many distinct schedules the plan has built —
// test hook for the cache's build-once guarantee.
func (p *Plan) cachedSchedules() int {
	p.schedMu.Lock()
	defer p.schedMu.Unlock()
	return len(p.schedules)
}
