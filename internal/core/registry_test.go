package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

func regSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema([]string{"x", "y"}, []int{32, 32})
}

// regBatch builds a distinct SUM workload per seed.
func regBatch(t *testing.T, schema *dataset.Schema, seed int64, n int) query.Batch {
	t.Helper()
	ranges, err := query.RandomPartition(schema, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "y")
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

func regStore(t *testing.T, schema *dataset.Schema) storage.Store {
	t.Helper()
	dist := dataset.Uniform(schema, 2000, 5)
	hat, err := dist.Transform(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewSparseStoreFromDense(hat)
}

func TestRegistryHitReturnsSamePlan(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Db4, 8)
	batch := regBatch(t, schema, 1, 6)

	p1, _, hit1, err := r.Prepare(batch, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatalf("first Prepare reported a hit")
	}
	p2, _, hit2, err := r.Prepare(batch, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatalf("second Prepare missed")
	}
	if p1 != p2 || p1.Plan != p2.Plan {
		t.Fatalf("repeat Prepare did not return the resident plan")
	}
	if p1.Tenant != "alice" {
		t.Fatalf("registering tenant lost: %q", p1.Tenant)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Plans != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got, ok := r.Lookup(p1.Fingerprint); !ok || got != p1 {
		t.Fatalf("Lookup by handle failed")
	}
}

// TestRegistryEvictsInlineBeforeTenantHandles: one-shot inline batches
// (tenant "") are the first victims, so the handles a tenant holds survive
// any amount of ad-hoc traffic; an inline eviction returns nothing to a
// tenant, and a real eviction returns its slot to the registering tenant.
func TestRegistryEvictsInlineBeforeTenantHandles(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Db4, 4)
	r.LimitTenants(2)

	var handles []string
	for seed := int64(1); seed <= 2; seed++ {
		prep, _, _, err := r.Prepare(regBatch(t, schema, seed, 4), "alice")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, prep.Fingerprint)
	}
	for seed := int64(100); seed < 200; seed++ {
		if _, _, hit, err := r.Prepare(regBatch(t, schema, seed, 4), ""); err != nil || hit {
			t.Fatalf("inline batch %d: hit=%v err=%v", seed, hit, err)
		}
	}
	for _, h := range handles {
		if _, ok := r.Lookup(h); !ok {
			t.Fatalf("tenant handle %s evicted by inline traffic", h)
		}
	}
	if st := r.Stats(); st.Evictions != 98 || st.Plans != 4 || st.Tenants != 1 {
		t.Fatalf("stats %+v, want 98 evictions, 4 resident plans, 1 tenant", st)
	}
	if _, _, _, err := r.Prepare(regBatch(t, schema, 6, 4), "alice"); !errors.Is(err, ErrTenantCap) {
		t.Fatalf("inline evictions returned a slot to alice: err=%v", err)
	}

	// With no inline registration left, plain LRU applies again.
	for seed := int64(3); seed <= 5; seed++ {
		tenant := "bob"
		if seed == 5 {
			tenant = "carol"
		}
		if _, _, _, err := r.Prepare(regBatch(t, schema, seed, 4), tenant); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Lookup(handles[0]); ok {
		t.Fatalf("least recently used tenant handle survived a registry full of tenant handles")
	}
	if st := r.Stats(); st.Evictions != 101 || st.Tenants != 3 {
		t.Fatalf("stats %+v, want 101 evictions over 3 tenants", st)
	}
	if _, _, _, err := r.Prepare(regBatch(t, schema, 6, 4), "alice"); err != nil {
		t.Fatalf("the eviction did not return alice's slot: %v", err)
	}
}

func TestRegistryPermutedBatchHitsAndMapsResults(t *testing.T) {
	schema := regSchema(t)
	store := regStore(t, schema)
	r := NewPlanRegistry(wavelet.Db4, 8)
	batch := regBatch(t, schema, 2, 7)

	prep, _, _, err := r.Prepare(batch, "")
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append(query.Batch(nil), batch...)
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	prep2, perm, hit, err := r.Prepare(shuffled, "")
	if err != nil {
		t.Fatal(err)
	}
	if !hit || prep2.Plan != prep.Plan {
		t.Fatalf("permuted presentation did not hit the resident plan")
	}
	// Results computed on the canonical plan, mapped through perm, must be
	// bit-identical to what a fresh canonical build yields for each request
	// slot — the prepared path's correctness contract.
	fresh, err := NewWaveletPlan(prep2.Batch, wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	got := mustExact(prep2.Plan, store)
	want := mustExact(fresh, store)
	for i := range shuffled {
		ci := perm[i]
		if got[ci] != want[ci] {
			t.Fatalf("slot %d differs", i)
		}
		if prep2.Batch[ci].Label != shuffled[i].Label {
			t.Fatalf("perm maps request %d to the wrong canonical query", i)
		}
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Db4, 2)
	r.LimitTenants(1)

	b1 := regBatch(t, schema, 10, 4)
	b2 := regBatch(t, schema, 11, 4)
	b3 := regBatch(t, schema, 12, 4)

	p1, _, _, err := r.Prepare(b1, "t1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Prepare(b2, "t2"); err != nil {
		t.Fatal(err)
	}
	// Touch b1 so b2 is the LRU victim when b3 arrives. A hit costs
	// nothing, so t1 at its cap of one may touch it.
	if _, _, hit, err := r.Prepare(b1, "t1"); !hit || err != nil {
		t.Fatalf("expected a free hit on touch: hit=%v err=%v", hit, err)
	}
	if _, _, _, err := r.Prepare(b3, "t3"); err != nil {
		t.Fatal(err)
	}

	if r.Len() != 2 {
		t.Fatalf("registry holds %d plans, want 2", r.Len())
	}
	if st := r.Stats(); st.Evictions != 1 || st.Tenants != 2 {
		t.Fatalf("stats %+v, want 1 eviction and 2 tenants", st)
	}
	if _, ok := r.Lookup(b2.Fingerprint()); ok {
		t.Fatalf("LRU victim b2 still resident")
	}
	if _, ok := r.Lookup(p1.Fingerprint); !ok {
		t.Fatalf("recently used b1 was evicted")
	}
	// The evicted plan's slot went back to t2, which registers again.
	if _, _, hit, err := r.Prepare(b2, "t2"); err != nil || hit {
		t.Fatalf("t2 re-registering its evicted plan: hit=%v err=%v", hit, err)
	}
}

func TestRegistryTemplateBindPath(t *testing.T) {
	schema := regSchema(t)
	store := regStore(t, schema)
	r := NewPlanRegistry(wavelet.Db4, 8)
	batch := regBatch(t, schema, 3, 6)

	p1, _, _, err := r.Prepare(batch, "")
	if err != nil {
		t.Fatal(err)
	}
	scaled := cloneBatchScaled(batch, 2.25)
	p2, _, hit, err := r.Prepare(scaled, "")
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatalf("distinct batch reported as hit")
	}
	if st := r.Stats(); st.TemplateBinds != 1 {
		t.Fatalf("template binds %d, want 1", st.TemplateBinds)
	}
	// The bound plan must share the template's CSR skeleton in memory.
	if &p2.Plan.keys[0] != &p1.Plan.keys[0] {
		t.Fatalf("bound plan does not share the template skeleton")
	}
	// And be bit-identical to a from-scratch build of the same batch.
	fresh, err := NewWaveletPlan(p2.Batch, wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansBitIdentical(t, p2.Plan, fresh, "registry-bound plan")
	assertBitIdentical(t, mustExact(p2.Plan, store), mustExact(fresh, store), "registry-bound Exact")
}

func TestRegistryBuildErrorNotCached(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Haar, 8) // Haar: zero vanishing moments
	ranges, err := query.GridPartition(schema, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := make(query.Batch, len(ranges))
	for i, rg := range ranges {
		q, err := query.SumSquares(schema, rg, "x") // degree 2 > Haar's reach
		if err != nil {
			t.Fatal(err)
		}
		bad[i] = q
	}
	if _, _, _, err := r.Prepare(bad, ""); err == nil {
		t.Fatalf("degree-2 batch under Haar did not error")
	}
	if r.Len() != 0 {
		t.Fatalf("failed build left %d resident plans", r.Len())
	}
	// The same registry still serves valid batches.
	good := query.CountBatch(schema, ranges)
	if _, _, _, err := r.Prepare(good, ""); err != nil {
		t.Fatalf("valid batch after failed build: %v", err)
	}
}

func TestRegistryConcurrentPrepareBuildsOnce(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Db4, 8)
	batch := regBatch(t, schema, 5, 8)

	const workers = 16
	plans := make([]*Plan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prep, _, _, err := r.Prepare(batch, "")
			if err == nil {
				plans[w] = prep.Plan
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if plans[w] == nil || plans[w] != plans[0] {
			t.Fatalf("worker %d got a different plan", w)
		}
	}
	if st := r.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("stats %+v, want 1 miss / %d hits", st, workers-1)
	}
}

func TestRegistryRemoveReleasesHandle(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Db4, 8)
	r.LimitTenants(1)
	batch := regBatch(t, schema, 6, 4)
	other := regBatch(t, schema, 7, 4)

	prep, _, _, err := r.Prepare(batch, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.Prepare(other, "carol"); !errors.Is(err, ErrTenantCap) {
		t.Fatalf("carol past her cap: err=%v", err)
	}
	if !r.Remove(prep.Fingerprint) {
		t.Fatalf("Remove of resident handle returned false")
	}
	if r.Remove(prep.Fingerprint) {
		t.Fatalf("Remove of absent handle returned true")
	}
	if _, ok := r.Lookup(prep.Fingerprint); ok {
		t.Fatalf("removed handle still resolves")
	}
	if st := r.Stats(); st.Evictions != 0 || st.Tenants != 0 {
		t.Fatalf("stats %+v: removal counted as eviction or left carol holding", st)
	}
	if _, _, _, err := r.Prepare(other, "carol"); err != nil {
		t.Fatalf("Remove did not return carol's slot: %v", err)
	}
	// The shape template was released too: re-preparing rebuilds cleanly.
	if _, _, hit, err := r.Prepare(batch, ""); err != nil || hit {
		t.Fatalf("re-prepare after remove: hit=%v err=%v", hit, err)
	}
}

// TestRegistryTenantCap: a named tenant holds at most its cap; a refusal
// wraps ErrTenantCap and registers nothing; a hit costs nothing, whoever
// asks; a failed build returns its slot.
func TestRegistryTenantCap(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Db4, 64)
	r.LimitTenants(2)
	a := regBatch(t, schema, 1, 4)
	for seed := int64(1); seed <= 2; seed++ {
		if _, _, _, err := r.Prepare(regBatch(t, schema, seed, 4), "t"); err != nil {
			t.Fatalf("registration %d under the cap: %v", seed, err)
		}
	}
	_, _, _, err := r.Prepare(regBatch(t, schema, 3, 4), "t")
	if !errors.Is(err, ErrTenantCap) {
		t.Fatalf("third registration at a cap of two: err=%v", err)
	}
	if st := r.Stats(); st.Plans != 2 || st.Misses != 2 || st.Hits != 0 || st.Tenants != 1 {
		t.Fatalf("a refusal registered or counted something: %+v", st)
	}
	for _, tenant := range []string{"t", "u", ""} {
		if _, _, hit, err := r.Prepare(a, tenant); err != nil || !hit {
			t.Fatalf("hit by %q: hit=%v err=%v", tenant, hit, err)
		}
	}
	if st := r.Stats(); st.Tenants != 1 {
		t.Fatalf("hits charged a tenant: %+v", st)
	}

	// A failed build returns its slot: u, at a cap of one, fails and then
	// registers.
	ranges, err := query.GridPartition(schema, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	h := NewPlanRegistry(wavelet.Haar, 8) // Haar: zero vanishing moments
	h.LimitTenants(1)
	bad := make(query.Batch, len(ranges))
	for i, rg := range ranges {
		if bad[i], err = query.SumSquares(schema, rg, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := h.Prepare(bad, "u"); err == nil || errors.Is(err, ErrTenantCap) {
		t.Fatalf("degree-2 batch under Haar: err=%v, want a build error", err)
	}
	if st := h.Stats(); st.Tenants != 0 || st.Plans != 0 {
		t.Fatalf("failed build left %+v", st)
	}
	if _, _, _, err := h.Prepare(query.CountBatch(schema, ranges), "u"); err != nil {
		t.Fatalf("failed build kept u's slot: %v", err)
	}
}

// TestRegistryTenantCapUnlimitedAndAnonymous: a cap of zero or below is no
// cap, and the inline tenant "" is never counted.
func TestRegistryTenantCapUnlimitedAndAnonymous(t *testing.T) {
	schema := regSchema(t)
	for _, limit := range []int{0, -1} {
		r := NewPlanRegistry(wavelet.Db4, 64)
		r.LimitTenants(limit)
		for seed := int64(1); seed <= 4; seed++ {
			if _, _, _, err := r.Prepare(regBatch(t, schema, seed, 4), "t"); err != nil {
				t.Fatalf("limit %d: %v", limit, err)
			}
		}
		if st := r.Stats(); st.Tenants != 1 {
			t.Fatalf("limit %d: stats %+v", limit, st)
		}
	}
	r := NewPlanRegistry(wavelet.Db4, 64)
	r.LimitTenants(1)
	for seed := int64(1); seed <= 4; seed++ {
		if _, _, _, err := r.Prepare(regBatch(t, schema, seed, 4), ""); err != nil {
			t.Fatalf("inline registration refused: %v", err)
		}
	}
	if st := r.Stats(); st.Tenants != 0 || st.Plans != 4 {
		t.Fatalf("inline registrations counted: %+v", st)
	}
}

// TestRegistryTenantCapConcurrent: goroutines of one tenant register
// distinct batches and remove them again while a reader checks, under the
// registry's lock, that the tenant never holds more than its cap and that
// its count is the number of its resident slots. Run it under -race.
func TestRegistryTenantCapConcurrent(t *testing.T) {
	schema := regSchema(t)
	const limit, workers = 3, 8
	r := NewPlanRegistry(wavelet.Db4, 64)
	r.LimitTenants(limit)
	batches := make([]query.Batch, workers)
	for w := range batches {
		batches[w] = regBatch(t, schema, int64(w+1), 3)
	}

	var refused, granted atomic.Int64
	stop := make(chan struct{})
	checked := make(chan error, 1)
	go func() {
		var bad error
		for {
			r.mu.Lock()
			held, slots := r.tenants["t"], 0
			for _, slot := range r.slots {
				if slot.tenant == "t" {
					slots++
				}
			}
			r.mu.Unlock()
			if bad == nil && (held > limit || held != slots) {
				bad = fmt.Errorf("tenant holds %d (count %d) at a cap of %d", slots, held, limit)
			}
			select {
			case <-stop:
				checked <- bad
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(b query.Batch) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				prep, _, _, err := r.Prepare(b, "t")
				switch {
				case errors.Is(err, ErrTenantCap):
					refused.Add(1)
				case err != nil:
					t.Error(err)
					return
				default:
					granted.Add(1)
					r.Remove(prep.Fingerprint)
				}
			}
		}(batches[w])
	}
	wg.Wait()
	close(stop)
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
	if granted.Load() == 0 {
		t.Fatal("no registration was granted")
	}
	if st := r.Stats(); st.Plans != 0 || st.Tenants != 0 {
		t.Fatalf("after every Remove: %+v", st)
	}

	// Without removals exactly the cap's worth of distinct batches lands.
	for w := range batches {
		wg.Add(1)
		go func(b query.Batch) {
			defer wg.Done()
			if _, _, _, err := r.Prepare(b, "t"); err != nil && !errors.Is(err, ErrTenantCap) {
				t.Error(err)
			}
		}(batches[w])
	}
	wg.Wait()
	if st := r.Stats(); st.Plans != limit || st.Tenants != 1 {
		t.Fatalf("concurrent registrations: %+v, want %d plans", st, limit)
	}
}

// TestRegistryHitZeroPlanConstruction pins the acceptance criterion that
// repeat execution of a prepared plan performs zero plan construction: the
// handle lookup allocates nothing at all — in particular no CSR arrays —
// and returns the pointer-identical resident plan.
func TestRegistryHitZeroPlanConstruction(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Db4, 8)
	batch := regBatch(t, schema, 7, 6)
	prep, _, _, err := r.Prepare(batch, "")
	if err != nil {
		t.Fatal(err)
	}
	handle := prep.Fingerprint
	var got *Prepared
	allocs := testing.AllocsPerRun(200, func() {
		p, ok := r.Lookup(handle)
		if !ok {
			t.Fatalf("lookup failed")
		}
		got = p
	})
	if allocs != 0 {
		t.Fatalf("handle lookup allocates %.1f objects per execute, want 0", allocs)
	}
	if got.Plan != prep.Plan {
		t.Fatalf("lookup returned a different plan")
	}
}

func TestScheduleCacheLRUBounded(t *testing.T) {
	old := maxCachedSchedules
	maxCachedSchedules = 4
	defer func() { maxCachedSchedules = old }()

	schema := regSchema(t)
	store := regStore(t, schema)
	batch := regBatch(t, schema, 8, 5)
	plan, err := NewWaveletPlan(batch, wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct weighted penalties have distinct fingerprints; sweep more of
	// them than the cache holds.
	pens := make([]penalty.Penalty, 10)
	for i := range pens {
		w := make([]float64, len(batch))
		for j := range w {
			w[j] = float64(i + j + 1)
		}
		p, err := penalty.NewWeighted(w)
		if err != nil {
			t.Fatal(err)
		}
		pens[i] = p
	}
	firsts := make([]*Schedule, len(pens))
	for i, pen := range pens {
		firsts[i] = plan.ScheduleFor(pen)
	}
	if n := plan.cachedSchedules(); n != 4 {
		t.Fatalf("schedule cache holds %d entries, want the bound 4", n)
	}
	// An evicted schedule is rebuilt correctly: same retrieval order, and
	// runs using it still drain to exact results.
	rebuilt := plan.ScheduleFor(pens[0])
	if rebuilt == firsts[0] {
		t.Fatalf("evicted schedule pointer survived eviction")
	}
	for j := range rebuilt.order {
		if rebuilt.order[j] != firsts[0].order[j] {
			t.Fatalf("rebuilt schedule order differs at %d", j)
		}
	}
	run := NewRun(plan, pens[0], store)
	drainRun(run)
	assertClose(t, run.Estimates(), mustExact(plan, store), 1e-9, "run on rebuilt schedule")
	// A resident (recently used) schedule is still served by pointer.
	if plan.ScheduleFor(pens[9]) != firsts[9] {
		t.Fatalf("resident schedule was rebuilt")
	}
}

// BenchmarkPlanRegistryHit measures the full prepared execute-path plan
// acquisition: canonicalize + fingerprint + registry hit. No CSR arrays are
// built (compare BenchmarkPlanRegistryAdhocBuild).
func BenchmarkPlanRegistryHit(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{64, 64})
	ranges, err := query.RandomPartition(schema, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "y")
	if err != nil {
		b.Fatal(err)
	}
	r := NewPlanRegistry(wavelet.Db4, 8)
	if _, _, _, err := r.Prepare(batch, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, hit, err := r.Prepare(batch, ""); err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkPlanRegistryLookup measures execution by handle — the pure hit
// path with canonicalization already paid at prepare time. Zero allocations.
func BenchmarkPlanRegistryLookup(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{64, 64})
	ranges, err := query.RandomPartition(schema, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "y")
	if err != nil {
		b.Fatal(err)
	}
	r := NewPlanRegistry(wavelet.Db4, 8)
	prep, _, _, err := r.Prepare(batch, "")
	if err != nil {
		b.Fatal(err)
	}
	handle := prep.Fingerprint
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Lookup(handle); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkPlanRegistryAdhocBuild is the old request path for comparison:
// full plan construction per request.
func BenchmarkPlanRegistryAdhocBuild(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{64, 64})
	ranges, err := query.RandomPartition(schema, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "y")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewWaveletPlan(batch, wavelet.Db4); err != nil {
			b.Fatal(err)
		}
	}
}
