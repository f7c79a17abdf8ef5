package core

// The retired container/heap implementation of the progressive run, kept as
// an executable specification: the schedule-based Run must reproduce its
// retrieval order, estimates, importance accounting, and per-query bounds
// bit-for-bit at every budget. The equality grid below and the benches in
// schedule_bench_test.go are the only consumers.

import (
	"container/heap"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/penalty"
	"repro/internal/sparse"
	"repro/internal/storage"
)

// refEntryHeap is the original importance heap: entry indices ordered by
// descending importance, ties broken by ascending key.
type refEntryHeap struct {
	idx        []int
	importance []float64
	keys       []int
}

func (h *refEntryHeap) Len() int { return len(h.idx) }
func (h *refEntryHeap) Less(a, b int) bool {
	ia, ib := h.idx[a], h.idx[b]
	if h.importance[ia] != h.importance[ib] {
		return h.importance[ia] > h.importance[ib]
	}
	return h.keys[ia] < h.keys[ib]
}
func (h *refEntryHeap) Swap(a, b int) { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *refEntryHeap) Push(x any)    { h.idx = append(h.idx, x.(int)) }
func (h *refEntryHeap) Pop() any {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// heapRefRun is the original heap-driven Run, ported verbatim onto the CSR
// plan accessors (same floating-point operations in the same order).
type heapRefRun struct {
	plan                *Plan
	store               storage.Store
	heap                *refEntryHeap
	estimates           []float64
	retrieved           int
	importances         []float64
	remainingImportance float64
	popped              []bool
}

func newHeapRefRun(plan *Plan, pen penalty.Penalty, store storage.Store) *heapRefRun {
	imps := plan.Importances(pen)
	idx := make([]int, len(plan.keys))
	for i := range idx {
		idx[i] = i
	}
	h := &refEntryHeap{idx: idx, importance: imps, keys: plan.keys}
	heap.Init(h)
	var total float64
	for _, v := range imps {
		total += v
	}
	return &heapRefRun{
		plan:                plan,
		store:               store,
		heap:                h,
		estimates:           make([]float64, plan.NumQueries()),
		importances:         imps,
		remainingImportance: total,
		popped:              make([]bool, len(plan.keys)),
	}
}

func (r *heapRefRun) step() bool {
	if r.heap.Len() == 0 {
		return false
	}
	i := heap.Pop(r.heap).(int)
	r.remainingImportance -= r.importances[i]
	r.popped[i] = true
	v := storage.Get(r.store, r.plan.keys[i])
	r.retrieved++
	if v != 0 {
		idxs, cs := r.plan.entryRefs(i)
		for k, qi := range idxs {
			r.estimates[qi] += cs[k] * v
		}
	}
	return true
}

func (r *heapRefRun) nextImportance() float64 {
	if r.heap.Len() == 0 {
		return 0
	}
	return r.importances[r.heap.idx[0]]
}

func (r *heapRefRun) remaining() float64 {
	if r.heap.Len() == 0 {
		return 0
	}
	return r.remainingImportance
}

// queryErrorBound recomputes the per-query Hölder bound from the popped set
// by brute force — the specification QueryErrorBound's cursor tracking must
// agree with.
func (r *heapRefRun) queryErrorBound(qi int, mass float64) float64 {
	var maxMag float64
	for i := range r.plan.keys {
		if r.popped[i] {
			continue
		}
		idxs, cs := r.plan.entryRefs(i)
		for k, q := range idxs {
			if int(q) == qi {
				if m := math.Abs(cs[k]); m > maxMag {
					maxMag = m
				}
			}
		}
	}
	return mass * maxMag
}

// refPenalties is the penalty shapes the equality grid runs under.
func refPenalties(t *testing.T, s int) []penalty.Penalty {
	t.Helper()
	pens := []penalty.Penalty{penalty.SSE{}}
	if w, err := penalty.Cursored(s, []int{0}, 7); err == nil {
		pens = append(pens, w)
	}
	if s >= 2 {
		if sm, err := penalty.NewFirstDifference(s); err == nil {
			pens = append(pens, sm)
		}
	}
	return pens
}

// TestScheduleMatchesHeapGrid is the equality grid of the refactor: across
// random plans, penalty shapes, and every step count, the schedule-based Run
// must match the retired heap implementation bit-for-bit — retrieval order,
// estimates, next/remaining importance, worst-case bound, and per-query
// error bounds.
func TestScheduleMatchesHeapGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	const mass = 1.9
	for trial := 0; trial < 12; trial++ {
		s := 2 + rng.Intn(4)
		n := 8 + rng.Intn(25)
		plan, err := NewPlan(tinyBatch(rng, s, n), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Random data with zeros mixed in so the v==0 skip path is exercised.
		cells := make([]float64, n)
		for i := range cells {
			if rng.Intn(3) > 0 {
				cells[i] = rng.NormFloat64()
			}
		}
		for _, pen := range refPenalties(t, s) {
			run := NewRun(plan, pen, newSliceStore(cells))
			ref := newHeapRefRun(plan, pen, newSliceStore(cells))
			for step := 0; ; step++ {
				if run.Retrieved() != ref.retrieved {
					t.Fatalf("trial %d pen %s step %d: retrieved %d vs %d",
						trial, pen.Name(), step, run.Retrieved(), ref.retrieved)
				}
				if run.NextImportance() != ref.nextImportance() {
					t.Fatalf("trial %d pen %s step %d: next importance %v vs %v",
						trial, pen.Name(), step, run.NextImportance(), ref.nextImportance())
				}
				if run.RemainingImportance() != ref.remaining() {
					t.Fatalf("trial %d pen %s step %d: remaining %v vs %v",
						trial, pen.Name(), step, run.RemainingImportance(), ref.remaining())
				}
				assertBitIdentical(t, run.Estimates(), ref.estimates, "grid estimates")
				for qi := 0; qi < plan.NumQueries(); qi++ {
					got := run.QueryErrorBound(qi, mass)
					want := ref.queryErrorBound(qi, mass)
					if got != want {
						t.Fatalf("trial %d pen %s step %d query %d: bound %v vs %v",
							trial, pen.Name(), step, qi, got, want)
					}
				}
				a, b := stepOne(run), ref.step()
				if a != b {
					t.Fatalf("trial %d pen %s step %d: Step %v vs %v", trial, pen.Name(), step, a, b)
				}
				if !a {
					break
				}
			}
			if !run.Done() || run.RemainingImportance() != 0 || run.WorstCaseBound(mass) != 0 {
				t.Fatalf("trial %d pen %s: run not cleanly finished", trial, pen.Name())
			}
		}
	}
}

// TestSchedulePopOrderUnderTies forces massive importance ties (coefficients
// drawn from a tiny discrete pool) and checks the schedule's order equals
// the heap's pop order entry-for-entry. Both implementations use the same
// strict total order — importance descending, key ascending — so ties must
// not introduce any divergence.
func TestSchedulePopOrderUnderTies(t *testing.T) {
	pool := []float64{1, -1, 2, -2}
	rng := rand.New(rand.NewSource(431))
	for trial := 0; trial < 30; trial++ {
		s := 2 + rng.Intn(3)
		n := 6 + rng.Intn(40)
		vectors := make([]sparse.Vector, s)
		for i := range vectors {
			vectors[i] = sparse.New()
			nz := 1 + rng.Intn(n-1)
			for k := 0; k < nz; k++ {
				vectors[i][rng.Intn(n)] = pool[rng.Intn(len(pool))]
			}
		}
		plan, err := NewPlan(vectors, nil)
		if err != nil {
			t.Fatal(err)
		}
		pen := penalty.SSE{}
		sched := plan.ScheduleFor(pen)
		ref := newHeapRefRun(plan, pen, newSliceStore(make([]float64, n)))
		ties := 0
		for j := 0; ref.heap.Len() > 0; j++ {
			want := heap.Pop(ref.heap).(int)
			if int(sched.order[j]) != want {
				t.Fatalf("trial %d pos %d: schedule entry %d, heap popped %d",
					trial, j, sched.order[j], want)
			}
			if j > 0 && sched.importances[sched.order[j]] == sched.importances[sched.order[j-1]] {
				ties++
			}
		}
		if trial == 0 && ties == 0 {
			t.Log("warning: discrete pool produced no importance ties this trial")
		}
	}
}

// TestScheduleCacheBuildsOnceUnderRace hammers one plan's schedule cache
// from many goroutines — mixed same-penalty and distinct-penalty requests —
// and checks every same-fingerprint caller got the same *Schedule and the
// cache built exactly one schedule per fingerprint. Run under -race this is
// the concurrency acceptance test for the shared cache.
func TestScheduleCacheBuildsOnceUnderRace(t *testing.T) {
	rng := rand.New(rand.NewSource(443))
	plan, err := NewPlan(tinyBatch(rng, 4, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := penalty.Cursored(4, []int{1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	pens := []penalty.Penalty{penalty.SSE{}, w}
	const workers = 16
	got := make([]*Schedule, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pen := pens[g%len(pens)]
			// NewRun is the production path into the cache; exercise it too.
			run := NewRun(plan, pen, newSliceStore(make([]float64, 64)))
			stepN(run, 5)
			got[g] = plan.ScheduleFor(pen)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[g%len(pens)] {
			t.Fatalf("goroutine %d got a different schedule than its fingerprint peer", g)
		}
	}
	if n := plan.cachedSchedules(); n != len(pens) {
		t.Fatalf("cache holds %d schedules, want %d", n, len(pens))
	}
}

// TestConcurrentRunsShareSchedule runs many progressive runs sharing one
// plan (and thus one cached schedule) to completion concurrently; every run
// must land on the same exact estimates. Under -race this pins down that
// runs never write to the shared schedule.
func TestConcurrentRunsShareSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(449))
	n := 64
	plan, err := NewPlan(tinyBatch(rng, 5, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = rng.NormFloat64()
	}
	want := mustExact(plan, newSliceStore(cells))
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := NewRun(plan, penalty.SSE{}, newSliceStore(cells))
			if g%2 == 0 {
				drainRun(run)
			} else {
				for stepBatch(run, 7) > 0 {
				}
			}
			for i := range want {
				if math.Abs(run.Estimates()[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					errCh <- "estimates diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if msg, ok := <-errCh; ok {
		t.Fatal(msg)
	}
}

// TestRunWithCheckpointsNormalization covers unsorted, duplicate, and
// already-passed checkpoint lists: callbacks fire in ascending order, each
// count at most once, points behind the cursor are skipped, and the exact
// completion callback always arrives.
func TestRunWithCheckpointsNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(457))
	n := 32
	plan, err := NewPlan(tinyBatch(rng, 3, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = rng.NormFloat64()
	}
	m := plan.DistinctCoefficients()
	if m < 8 {
		t.Fatalf("fixture too small: %d entries", m)
	}
	exact := mustExact(plan, newSliceStore(cells))

	t.Run("unsorted-and-duplicates", func(t *testing.T) {
		run := NewRun(plan, penalty.SSE{}, newSliceStore(cells))
		points := []int{m - 1, 2, 5, 2, 5, 1, m + 10}
		var seen []int
		run.RunWithCheckpoints(points, func(retrieved int, est []float64) {
			seen = append(seen, retrieved)
		})
		want := []int{1, 2, 5, m - 1, m}
		if len(seen) != len(want) {
			t.Fatalf("callbacks at %v, want %v", seen, want)
		}
		for i := range want {
			if seen[i] != want[i] {
				t.Fatalf("callbacks at %v, want %v", seen, want)
			}
		}
		assertBitIdentical(t, run.Estimates(), exact, "checkpoint completion")
	})

	t.Run("past-points-skipped", func(t *testing.T) {
		run := NewRun(plan, penalty.SSE{}, newSliceStore(cells))
		stepN(run, 6)
		var seen []int
		run.RunWithCheckpoints([]int{1, 3, 6, 7}, func(retrieved int, est []float64) {
			seen = append(seen, retrieved)
		})
		want := []int{6, 7, m}
		if len(seen) != len(want) {
			t.Fatalf("callbacks at %v, want %v", seen, want)
		}
		for i := range want {
			if seen[i] != want[i] {
				t.Fatalf("callbacks at %v, want %v", seen, want)
			}
		}
	})

	t.Run("empty-list-still-completes", func(t *testing.T) {
		run := NewRun(plan, penalty.SSE{}, newSliceStore(cells))
		calls := 0
		run.RunWithCheckpoints(nil, func(retrieved int, est []float64) {
			calls++
			if retrieved != m {
				t.Fatalf("completion at %d, want %d", retrieved, m)
			}
		})
		if calls != 1 {
			t.Fatalf("%d callbacks, want 1", calls)
		}
	})

	t.Run("input-slice-not-mutated", func(t *testing.T) {
		run := NewRun(plan, penalty.SSE{}, newSliceStore(cells))
		points := []int{5, 2, 9}
		run.RunWithCheckpoints(points, func(int, []float64) {})
		if points[0] != 5 || points[1] != 2 || points[2] != 9 {
			t.Fatalf("caller's slice reordered: %v", points)
		}
	})
}
