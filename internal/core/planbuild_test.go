package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// batchVectors materializes a batch's per-query wavelet coefficient vectors
// and labels — the map-vector form of what the plan build streams.
func batchVectors(b query.Batch, f *wavelet.Filter) ([]sparse.Vector, []string, error) {
	vectors := make([]sparse.Vector, len(b))
	labels := make([]string, len(b))
	for i, q := range b {
		v, err := q.Coefficients(f)
		if err != nil {
			return nil, nil, err
		}
		vectors[i], labels[i] = v, q.Label
	}
	return vectors, labels, nil
}

// oraclePlan is the map merge the run merge replaced, kept as the reference:
// per-key append in ascending query order, keys sorted, entries flattened.
func oraclePlan(n int, gen emitter) (*Plan, error) {
	type entry struct {
		queryIdx []int32
		coeffs   []float64
	}
	merged := make(map[int]*entry)
	p := &Plan{}
	for qi := 0; qi < n; qi++ {
		run, err := gen(qi)
		if err != nil {
			return nil, err
		}
		pairs := make([]sparse.Entry, run.Len())
		run.Fill(pairs)
		for _, pair := range pairs {
			e, ok := merged[pair.Key]
			if !ok {
				e = &entry{}
				merged[pair.Key] = e
				p.keys = append(p.keys, pair.Key)
			}
			e.queryIdx = append(e.queryIdx, int32(qi))
			e.coeffs = append(e.coeffs, pair.Val)
		}
	}
	sort.Ints(p.keys)
	for _, key := range p.keys {
		p.offsets = append(p.offsets, int32(len(p.queryIdx)))
		p.queryIdx = append(p.queryIdx, merged[key].queryIdx...)
		p.coeffs = append(p.coeffs, merged[key].coeffs...)
	}
	p.offsets = append(p.offsets, int32(len(p.queryIdx)))
	p.totalQueryCoefficients = len(p.queryIdx)
	return p, nil
}

// assertSameCSR compares the four CSR arrays with == (coefficients too: the
// merge moves values, it never recomputes them).
func assertSameCSR(t *testing.T, got, want *Plan, ctx string) {
	t.Helper()
	if len(got.keys) != len(want.keys) || len(got.offsets) != len(want.offsets) ||
		len(got.queryIdx) != len(want.queryIdx) || len(got.coeffs) != len(want.coeffs) {
		t.Fatalf("%s: CSR sizes %d/%d/%d/%d, want %d/%d/%d/%d", ctx,
			len(got.keys), len(got.offsets), len(got.queryIdx), len(got.coeffs),
			len(want.keys), len(want.offsets), len(want.queryIdx), len(want.coeffs))
	}
	for i := range want.keys {
		if got.keys[i] != want.keys[i] {
			t.Fatalf("%s: keys[%d] = %d, want %d", ctx, i, got.keys[i], want.keys[i])
		}
	}
	for i := range want.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("%s: offsets[%d] = %d, want %d", ctx, i, got.offsets[i], want.offsets[i])
		}
	}
	for k := range want.queryIdx {
		if got.queryIdx[k] != want.queryIdx[k] {
			t.Fatalf("%s: queryIdx[%d] = %d, want %d", ctx, k, got.queryIdx[k], want.queryIdx[k])
		}
		if got.coeffs[k] != want.coeffs[k] {
			t.Fatalf("%s: coeffs[%d] = %v, want %v", ctx, k, got.coeffs[k], want.coeffs[k])
		}
	}
	if got.totalQueryCoefficients != want.totalQueryCoefficients {
		t.Fatalf("%s: total %d, want %d", ctx, got.totalQueryCoefficients, want.totalQueryCoefficients)
	}
}

// randomBatch draws a batch over a random 1–5-dimensional schema: ranges that
// overlap freely, exact duplicates, and — when the filter has the vanishing
// moments for it — SUMs and degree-2 multi-term polynomials.
func randomBatch(t *testing.T, rng *rand.Rand, f *wavelet.Filter, size int) query.Batch {
	t.Helper()
	d := 1 + rng.Intn(5)
	names, sizes := make([]string, d), make([]int, d)
	for i := range sizes {
		names[i] = fmt.Sprintf("a%d", i)
		sizes[i] = 4 << rng.Intn(6/d+1) // smaller sides in higher dimensions
	}
	schema := dataset.MustSchema(names, sizes)
	maxDeg := f.VanishingMoments() - 1
	batch := make(query.Batch, 0, size)
	for len(batch) < size {
		if len(batch) > 0 && rng.Intn(5) == 0 {
			batch = append(batch, batch[rng.Intn(len(batch))]) // duplicate query
			continue
		}
		lo, hi := make([]int, d), make([]int, d)
		for i, n := range sizes {
			lo[i] = rng.Intn(n)
			hi[i] = lo[i] + rng.Intn(n-lo[i])
		}
		r, err := query.NewRange(schema, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		q := query.Count(schema, r)
		switch {
		case maxDeg >= 2 && rng.Intn(3) == 0:
			// c₂·x² + c₁·x·[y] + c₀: three terms, per-variable degree ≤ 2.
			sq, mixed := make([]int, d), make([]int, d)
			sq[rng.Intn(d)] = 2
			mixed[rng.Intn(d)]++
			mixed[rng.Intn(d)]++
			q.Terms = []query.Term{
				{Coeff: rng.NormFloat64(), Powers: sq},
				{Coeff: rng.NormFloat64(), Powers: mixed},
				{Coeff: rng.NormFloat64(), Powers: make([]int, d)},
			}
		case maxDeg >= 1 && rng.Intn(2) == 0:
			q.Terms[0].Powers[rng.Intn(d)] = 1
		}
		q.Label = fmt.Sprintf("r%d", len(batch))
		batch = append(batch, q)
	}
	return batch
}

// TestPlanBuildMatchesOracleMerge is the differential test of the plan
// build: for seeded random schemas, filters, batch sizes and worker counts,
// the run merge — fed by the streaming wavelet rewrite and by map vectors —
// produces exactly the CSR arrays of the map merge it replaced, and a build
// offered its own shape as a template produces them again on a shared
// skeleton.
func TestPlanBuildMatchesOracleMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	filters := []*wavelet.Filter{wavelet.Haar, wavelet.Db4, wavelet.Db6}
	for trial := 0; trial < 60; trial++ {
		f := filters[trial%len(filters)]
		size := 1 + rng.Intn(64)
		if trial%10 == 0 {
			size = 1 + trial/10 // the small sizes, 1 included, every time
		}
		batch := randomBatch(t, rng, f, size)
		ctx := fmt.Sprintf("trial %d (%s, %d queries, %d dims)", trial, f.Name, size, batch[0].Schema.NumDims())

		gen := func(qi int) (sparse.Product, error) { return batch[qi].Rewrite(f) }
		want, err := oraclePlan(len(batch), gen)
		if err != nil {
			t.Fatal(err)
		}
		vectors, _, err := batchVectors(batch, f)
		if err != nil {
			t.Fatal(err)
		}
		var tmpl *Plan
		for _, workers := range []int{1, 2, 3, 8} {
			wctx := fmt.Sprintf("%s, %d workers", ctx, workers)
			streamed, err := waveletPlanOn(batch, f, workers)
			if err != nil {
				t.Fatalf("%s: %v", wctx, err)
			}
			assertSameCSR(t, streamed, want, wctx+", wavelet")
			fromVectors, err := newPlan(vectors, nil, workers)
			if err != nil {
				t.Fatalf("%s: %v", wctx, err)
			}
			assertSameCSR(t, fromVectors, want, wctx+", vectors")
			if streamed.ShapeOf() != fromVectors.ShapeOf() || streamed.ShapeOf() != ShapeFingerprint(vectors) {
				t.Fatalf("%s: shape fingerprints disagree", wctx)
			}
			if tmpl == nil {
				tmpl = streamed
				continue
			}
			view, bound, err := newWaveletPlan(batch, f, workers, func(string) *Plan { return tmpl })
			if err != nil || !bound {
				t.Fatalf("%s: same batch did not bind to its own plan (bound=%v, err=%v)", wctx, bound, err)
			}
			assertSameCSR(t, view, want, wctx+", bound")
			if len(want.keys) > 0 && &view.keys[0] != &tmpl.keys[0] {
				t.Fatalf("%s: bound plan copied the skeleton", wctx)
			}
		}
	}
}

// TestTemplateMergeRejectsNearShapes drives the verifying merge with shapes
// that agree with the template on every count but not on structure.
func TestTemplateMergeRejectsNearShapes(t *testing.T) {
	tmpl, err := NewPlan([]sparse.Vector{{5: 1}, {7: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, vectors := range map[string][]sparse.Vector{
		"entries merged":  {{5: 1}, {5: 2}},
		"key moved":       {{5: 1}, {8: 2}},
		"queries swapped": {{7: 1}, {5: 2}},
		"one key short":   {{5: 1}, {}},
	} {
		if _, err := tmpl.Bind(vectors, nil); err == nil {
			t.Errorf("%s: bound to a template of a different shape", name)
		}
	}
	split, err := NewPlan([]sparse.Vector{{5: 1}, {5: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := split.Bind([]sparse.Vector{{5: 1}, {7: 2}}, nil); err == nil {
		t.Errorf("entry split: bound to a template of a different shape")
	}
}

// TestRegistryMissRewritesOnceAndSharesSkeleton: with resident shapes, a
// miss runs every query through the emitter exactly once — no probe rewrite
// before the build — and a shape hit shares the template's key array.
func TestRegistryMissRewritesOnceAndSharesSkeleton(t *testing.T) {
	schema := regSchema(t)
	reg := NewPlanRegistry(wavelet.Db4, 8)
	batch := regBatch(t, schema, 1, 6)
	first, _, _, err := reg.Prepare(batch, "")
	if err != nil {
		t.Fatal(err)
	}

	// The registry's own build, with a counting emitter in the emitter's place.
	reweighted := cloneBatchScaled(batch, 2.5)
	counts := make([]atomic.Int32, len(reweighted))
	gen := func(qi int) (sparse.Product, error) {
		counts[qi].Add(1)
		return reweighted[qi].Rewrite(wavelet.Db4)
	}
	plan, bound, err := buildPlan(len(reweighted), make([]string, len(reweighted)), gen, 0, reg.template)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range counts {
		if n := counts[qi].Load(); n != 1 {
			t.Fatalf("query %d rewritten %d times", qi, n)
		}
	}
	if !bound || &plan.keys[0] != &first.Plan.keys[0] {
		t.Fatalf("same-shape build did not share the resident skeleton (bound=%v)", bound)
	}

	// And through Prepare: a bind is counted, the skeleton is shared, and the
	// result is the plan a registry with no templates builds.
	second, _, hit, err := reg.Prepare(reweighted, "")
	if err != nil || hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if got := reg.Stats().TemplateBinds; got != 1 {
		t.Fatalf("template binds = %d, want 1", got)
	}
	if &second.Plan.keys[0] != &first.Plan.keys[0] {
		t.Fatalf("prepared same-shape plan copied the skeleton")
	}
	canonical, _ := reweighted.Canonical()
	fresh, err := NewWaveletPlan(canonical, wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCSR(t, second.Plan, fresh, "bound vs fresh")

	// A different shape with templates resident: full build, still one rewrite.
	other, _, _, err := reg.Prepare(regBatch(t, schema, 2, 6), "")
	if err != nil {
		t.Fatal(err)
	}
	if &other.Plan.keys[0] == &first.Plan.keys[0] || reg.Stats().TemplateBinds != 1 {
		t.Fatalf("different-shape batch bound to the template")
	}
}

// failingKeys is a store whose listed keys fail permanently (until cleared):
// the fault injector with a per-key decision.
func failingKeys(inner storage.Store, fail map[int]bool) storage.Store {
	return storage.NewFaultStore(inner, storage.FaultConfig{
		ErrorRate: 1,
		KeyMatch:  func(key int) bool { return fail[key] },
	})
}

// bruteForceBound is the definition: K · max |q̂ᵢ[ξ]| over unretrieved ξ.
func bruteForceBound(r *Run, qi int, mass float64) float64 {
	var m float64
	for j, e := range r.sched.order {
		if r.stepRetrieved(j) {
			continue
		}
		idxs, cs := r.plan.entryRefs(int(e))
		for k, q := range idxs {
			if int(q) == qi {
				m = math.Max(m, math.Abs(cs[k]))
			}
		}
	}
	if m == 0 {
		return 0
	}
	return mass * m
}

// TestQueryErrorBoundMatchesDefinitionAtEveryCursor drains through a store
// that fails early, late and adjacent schedule positions, and the position
// just before the first block boundary of the bound index, and at every
// cursor — and again after the skipped entries are recovered — compares the
// indexed bound with the brute-force definition, and a template-bound plan's
// bounds with a freshly built one's. The cases cover a block of 64 and of
// 128 (more than 64 queries), a plan shorter than one block, and a plan
// whose last block is partial.
func TestQueryErrorBoundMatchesDefinitionAtEveryCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(1603))
	for _, tc := range []struct {
		name                       string
		queries, keysPer, keySpace int
		blockShift                 int
		shorter                    bool // fewer entries than one block
		partial                    bool // a full block, then a partial one
	}{
		{"7 queries", 7, 23, 300, 6, false, false},
		{"70 queries", 70, 4, 400, 7, false, false},
		{"shorter than a block", 3, 8, 40, 6, true, false},
		{"partial last block", 5, 20, 200, 6, false, true},
	} {
		v1, v2 := shapePair(rng, tc.queries, tc.keysPer, tc.keySpace)
		tmpl, err := NewPlan(v1, nil)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := tmpl.Bind(v2, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPlan(v2, nil)
		if err != nil {
			t.Fatal(err)
		}
		const mass = 3.25
		for _, pen := range invariantPenalties(t, tc.queries) {
			sched := fresh.ScheduleFor(pen)
			order := sched.KeyOrder()
			n, blk := len(order), 1<<sched.blockShift
			if sched.blockShift != tc.blockShift || tc.shorter && n >= blk || tc.partial && (n < blk || n%blk == 0) {
				t.Fatalf("%s: %d entries in blocks of %d", tc.name, n, blk)
			}
			fail := map[int]bool{}
			for _, sp := range []int{0, 1, 2, n / 2, n/2 + 1, n - 2, n - 1, blk - 1} {
				if sp < n {
					fail[order[sp]] = true
				}
			}
			base := templateStore(rng, tc.keySpace)
			rf := NewRun(fresh, pen, failingKeys(base, fail))
			rb := NewRun(bound, pen, failingKeys(base, fail))
			check := func() {
				t.Helper()
				all, allBound := rf.QueryErrorBounds(mass), rb.QueryErrorBounds(mass)
				for qi := range all {
					want := bruteForceBound(rf, qi, mass)
					if got := rf.QueryErrorBound(qi, mass); got != want {
						t.Fatalf("%s %s cursor %d query %d: bound %v, definition %v", tc.name, pen.Fingerprint(), rf.Retrieved(), qi, got, want)
					}
					if all[qi] != want || allBound[qi] != want {
						t.Fatalf("%s %s cursor %d query %d: QueryErrorBounds %v / template-bound %v, definition %v",
							tc.name, pen.Fingerprint(), rf.Retrieved(), qi, all[qi], allBound[qi], want)
					}
				}
			}
			check()
			for !rf.Done() {
				stepOne(rf)
				stepOne(rb)
				check()
			}
			if rf.SkippedCount() != len(fail) {
				t.Fatalf("%s: skipped %d entries, want %d", tc.name, rf.SkippedCount(), len(fail))
			}
			// Recover all but one skipped entry; the bounds follow.
			keep := order[n/2]
			for key := range fail {
				fail[key] = key == keep
			}
			for _, r := range []*Run{rf, rb} {
				if got, err := r.RetrySkipped(context.Background()); err != nil || got != len(fail)-1 {
					t.Fatalf("%s: RetrySkipped = %d, %v", tc.name, got, err)
				}
			}
			check()
		}
	}
}

// TestPlanPathAllocationCeilings pins the allocation counts this design is
// for: a plan build allocates per worker and per CSR array, not per
// coefficient; reading bounds allocates the result and nothing else; NewRun
// stays at its estimate vector.
func TestPlanPathAllocationCeilings(t *testing.T) {
	batch := poolBatches(t, 1)[0]
	vectors, _, err := batchVectors(batch, wavelet.Db6)
	if err != nil {
		t.Fatal(err)
	}
	// From vectors the build is the merge alone.
	if a := testing.AllocsPerRun(5, func() { _, _ = newPlan(vectors, nil, 1) }); a > 64 {
		t.Errorf("plan build from vectors: %v allocations, ceiling 64", a)
	}
	// From queries it adds the 1-D lazy transforms (internal/wavelet: about 35
	// allocations for each of 8 queries × 5 dimensions) and nothing that
	// grows with the 26 624 coefficients.
	if a := testing.AllocsPerRun(5, func() { _, _ = waveletPlanOn(batch, wavelet.Db6, 1) }); a > 2000 {
		t.Errorf("wavelet plan build: %v allocations, ceiling 2000", a)
	}

	plan, err := NewWaveletPlan(batch, wavelet.Db6)
	if err != nil {
		t.Fatal(err)
	}
	pen := penalty.SSE{}
	plan.ScheduleFor(pen)
	store := storage.NewHashStore()
	// NewRun inlines, so a run that does not escape costs its estimate vector.
	if a := testing.AllocsPerRun(20, func() { _ = NewRun(plan, pen, store).Done() }); a > 1 {
		t.Errorf("NewRun: %v allocations, ceiling 1", a)
	}
	run := NewRun(plan, pen, store)
	stepBatch(run, 1024)
	// A run keeps no bound state, so its first read is like any other.
	if a := testing.AllocsPerRun(20, func() { run.QueryErrorBounds(1) }); a > 2 {
		t.Errorf("QueryErrorBounds: %v allocations, ceiling 2", a)
	}
}

// TestRegistryMissAllocationBudget bounds the bytes a registry miss
// allocates (runtime.MemStats.TotalAlloc over a pass of the pool) by what
// its plan and schedule are made of. Per entry, 60 B: the plan's key and
// offset (12), the schedule's order, keys, importances and remaining chain
// (28), the sort's entry ids (4) and rank keys (16). Per reference, 28 B:
// the plan's query index and coefficient (12) and the run slab's pair (16).
// Per query, 32 KiB for its 1-D transforms, which also covers the bound
// index's block table (about one float per entry and two per query). A
// merge that sizes keys or offsets by the reference count, runs that grow by
// appending, or a bound index with a cell per reference overshoot it.
func TestRegistryMissAllocationBudget(t *testing.T) {
	batches := poolBatches(t, 32)
	reg := NewPlanRegistry(wavelet.Db6, 0)
	reg.WarmSchedules(penalty.SSE{})
	pass := func() (allocated, budget uint64) {
		var before, after runtime.MemStats
		handles := make([]string, 0, len(batches))
		runtime.ReadMemStats(&before)
		for _, batch := range batches {
			prep, _, hit, err := reg.Prepare(batch, "")
			if err != nil || hit {
				t.Fatalf("hit=%v err=%v", hit, err)
			}
			handles = append(handles, prep.Fingerprint)
			p := prep.Plan
			budget += uint64(60*p.DistinctCoefficients() + 28*p.TotalQueryCoefficients() + 32<<10*p.NumQueries())
		}
		runtime.ReadMemStats(&after)
		for _, h := range handles {
			reg.Remove(h)
		}
		return after.TotalAlloc - before.TotalAlloc, budget
	}
	pass() // the first pass also builds the transforms' caches, if any
	if allocated, budget := pass(); allocated > budget {
		t.Fatalf("a pass of %d registry misses allocated %d bytes, budget %d", len(batches), allocated, budget)
	}
}

// TestResidentPlanBytes bounds what prepared plans keep live: the heap the
// poolBatches(32) plans and their SSE schedules retain after a GC. Per
// entry, 40 B: the plan's key and offset (12) and the schedule's order, keys,
// importances and remaining chain (28). Per reference, 12 B: the plan's query
// index and coefficient. Then the bound index's block table, and 8 KiB per
// query for labels, headers, the schedule cache and the heap rounding each
// large array up to whole 8 KiB pages. A bound index with a cell per
// reference overshoots it by half.
func TestResidentPlanBytes(t *testing.T) {
	batches := poolBatches(t, 32)
	build := func() []*Plan {
		plans := make([]*Plan, len(batches))
		for i, batch := range batches {
			p, err := NewWaveletPlan(batch, wavelet.Db6)
			if err != nil {
				t.Fatal(err)
			}
			p.ScheduleFor(penalty.SSE{})
			plans[i] = p
		}
		return plans
	}
	build() // the first build also fills the transforms' caches, if any
	var plans []*Plan
	retained := heapRetained(func() any {
		plans = build()
		return plans
	})
	var budget int64
	for _, p := range plans {
		table := len(p.ScheduleFor(penalty.SSE{}).blockMax)
		budget += int64(40*p.DistinctCoefficients() + 12*p.TotalQueryCoefficients() + 8*table + 8<<10*p.NumQueries())
	}
	if retained > budget {
		t.Fatalf("%d plans retain %d bytes after GC (%d a plan), budget %d", len(plans), retained, retained/int64(len(plans)), budget)
	}
}

// TestPlanRejectsKeysBeyondMergeRange: a key must leave room for the
// merge's query bits and its sentinel; one that does not is an error, not
// a misordered plan.
func TestPlanRejectsKeysBeyondMergeRange(t *testing.T) {
	limit := 1 << (63 - queryBits(2)) // two queries take two bits
	if _, err := NewPlan([]sparse.Vector{{limit - 2: 1}, {-limit: 2}}, nil); err != nil {
		t.Fatalf("keys at the range's ends: %v", err)
	}
	for _, key := range []int{limit - 1, math.MaxInt, -limit - 1, math.MinInt} {
		if _, err := NewPlan([]sparse.Vector{{key: 1}, {0: 2}}, nil); err == nil {
			t.Errorf("key %d: built a plan", key)
		}
	}
}
