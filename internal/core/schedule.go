package core

import (
	"cmp"
	"container/list"
	"math"
	"slices"
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
	// order[j] is the master-list entry retrieved at step j.
	order []int32
	// pos is the inverse permutation: pos[i] is entry i's step. A run has
	// retrieved entry i iff pos[i] < its cursor, which replaces the per-run
	// popped bitmap the heap implementation allocated.
	pos []int32
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

	// The per-query error-bound index (bounds.go), CSR by query: query i's
	// references sit at qoff[i]:qoff[i+1]; qpos holds the schedule steps that
	// retrieve one of its coefficients, ascending, and qmax[k] is the largest
	// |q̂ᵢ[ξ]| retrieved at step qpos[k] or later — so the bound of a run at
	// any cursor is one search away. 12 bytes per reference, built with the
	// schedule and shared by every run on it.
	qoff []int32
	qpos []int32
	qmax []float64
}

// buildSchedule computes the retrieval schedule for the plan under the
// penalty: the importance vector, the sorted order, its inverse, the
// per-prefix remaining-importance chain and the per-query bound index.
func buildSchedule(p *Plan, pen penalty.Penalty) *Schedule {
	n := len(p.keys)
	s := &Schedule{
		order:       make([]int32, n),
		pos:         make([]int32, n),
		keys:        make([]int, n),
		importances: p.Importances(pen),
		remaining:   make([]float64, n+1),
	}
	// Importance descending, key ascending. Entry indices ascend with keys and
	// are distinct, so the order is strict and total: any sort lands on the
	// one permutation the importance heap would have popped. Sorting packed
	// (importance, entry) pairs keeps the comparisons off the indirections.
	type ranked struct {
		imp   float64
		entry int32
	}
	byRank := make([]ranked, n)
	for i, imp := range s.importances {
		byRank[i] = ranked{imp, int32(i)}
	}
	slices.SortFunc(byRank, func(a, b ranked) int {
		switch {
		case a.imp > b.imp:
			return -1
		case a.imp < b.imp:
			return 1
		}
		return cmp.Compare(a.entry, b.entry)
	})
	for j, r := range byRank {
		s.order[j] = r.entry
	}
	// The heap seeded its running total by summing importances in plan
	// (ascending-key) order, then subtracted the popped entry's importance
	// each step. Replay exactly that operation sequence.
	total := 0.0
	for _, imp := range s.importances {
		total += imp
	}
	s.remaining[0] = total
	for j, e := range s.order {
		s.pos[e] = int32(j)
		s.keys[j] = p.keys[e]
		s.remaining[j+1] = s.remaining[j] - s.importances[e]
	}

	// Bound index: one reverse pass over the schedule, carrying each query's
	// running max |coefficient| and filling its segment from the back, leaves
	// positions ascending and suffix maxima in place — no sort.
	nq := p.NumQueries()
	s.qoff = make([]int32, nq+1)
	for _, qi := range p.queryIdx {
		s.qoff[qi+1]++
	}
	for i := 0; i < nq; i++ {
		s.qoff[i+1] += s.qoff[i]
	}
	s.qpos = make([]int32, len(p.queryIdx))
	s.qmax = make([]float64, len(p.queryIdx))
	fill := append([]int32(nil), s.qoff[1:]...) // next free slot + 1, per query
	running := make([]float64, nq)
	for j := n - 1; j >= 0; j-- {
		idxs, cs := p.entryRefs(int(s.order[j]))
		for k, qi := range idxs {
			running[qi] = max(running[qi], math.Abs(cs[k]))
			fill[qi]--
			s.qpos[fill[qi]] = int32(j)
			s.qmax[fill[qi]] = running[qi]
		}
	}
	return s
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
