package core

import (
	"math/rand"
	"sync"
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
	return storage.NewHashStoreFromDense(hat, 0)
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
// (tenant "") are the first victims, so the handles a tenant holds quota for
// survive any amount of ad-hoc traffic, and quota is released once per real
// eviction.
func TestRegistryEvictsInlineBeforeTenantHandles(t *testing.T) {
	schema := regSchema(t)
	r := NewPlanRegistry(wavelet.Db4, 4)
	released := map[string]int{}
	r.OnEvict(func(_, tenant string) { released[tenant]++ })

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
	if st := r.Stats(); st.Evictions != 98 || st.Plans != 4 {
		t.Fatalf("stats %+v, want 98 evictions and 4 resident plans", st)
	}
	if released[""] != 98 || released["alice"] != 0 {
		t.Fatalf("eviction observer saw %v, want 98 inline releases only", released)
	}

	// With no inline registration left, plain LRU applies again.
	for seed := int64(3); seed <= 5; seed++ {
		if _, _, _, err := r.Prepare(regBatch(t, schema, seed, 4), "bob"); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Lookup(handles[0]); ok {
		t.Fatalf("least recently used tenant handle survived a registry full of tenant handles")
	}
	if released[""] != 100 || released["alice"] != 1 {
		t.Fatalf("eviction observer saw %v, want 100 inline and 1 alice release", released)
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
	got := prep2.Plan.Exact(store)
	want := fresh.Exact(store)
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
	var evicted []string
	r.OnEvict(func(fp, tenant string) { evicted = append(evicted, fp+"/"+tenant) })

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
	// Touch b1 so b2 is the LRU victim when b3 arrives.
	if _, _, hit, _ := r.Prepare(b1, "t1"); !hit {
		t.Fatalf("expected hit on touch")
	}
	if _, _, _, err := r.Prepare(b3, "t3"); err != nil {
		t.Fatal(err)
	}

	if r.Len() != 2 {
		t.Fatalf("registry holds %d plans, want 2", r.Len())
	}
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
	b2fp := b2.Fingerprint()
	if len(evicted) != 1 || evicted[0] != b2fp+"/t2" {
		t.Fatalf("evict observer saw %v, want [%s/t2]", evicted, b2fp)
	}
	if _, ok := r.Lookup(b2fp); ok {
		t.Fatalf("evicted handle still resolves")
	}
	if _, ok := r.Lookup(p1.Fingerprint); !ok {
		t.Fatalf("recently-used handle was evicted")
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
	assertBitIdentical(t, p2.Plan.Exact(store), fresh.Exact(store), "registry-bound Exact")
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
	var evicted []string
	r.OnEvict(func(fp, tenant string) { evicted = append(evicted, tenant) })
	batch := regBatch(t, schema, 6, 4)

	prep, _, _, err := r.Prepare(batch, "carol")
	if err != nil {
		t.Fatal(err)
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
	if len(evicted) != 1 || evicted[0] != "carol" {
		t.Fatalf("evict observer saw %v", evicted)
	}
	if st := r.Stats(); st.Evictions != 0 {
		t.Fatalf("explicit removal counted as eviction")
	}
	// The shape template was released too: re-preparing rebuilds cleanly.
	if _, _, hit, err := r.Prepare(batch, ""); err != nil || hit {
		t.Fatalf("re-prepare after remove: hit=%v err=%v", hit, err)
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
	run.RunToCompletion()
	assertClose(t, run.Estimates(), plan.Exact(store), 1e-9, "run on rebuilt schedule")
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
